package historian

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
)

// Options tunes a Store. The zero value is usable: Open fills in
// defaults.
type Options struct {
	// MaxSegmentBytes seals the active segment once its record data
	// reaches this size and starts a new one. Default 8 MiB. It bounds
	// the Sync journal too.
	MaxSegmentBytes int64
	// FlushSamples flushes a point's buffer to a compressed block once
	// it holds this many samples. Default 512. Larger blocks compress
	// better; smaller ones bound the memory a point's tail holds (16 B a
	// sample) and the size of a block. It bounds no data at risk: Sync
	// journals the buffers.
	FlushSamples int
	// FsyncEveryBytes batches fsync: the active segment is synced after
	// this many bytes of new records. Default 1 MiB. Zero syncs only on
	// Sync/Close/seal.
	FsyncEveryBytes int64
	// Retention drops sealed segments whose newest sample is older than
	// this at Compact time. Zero keeps everything — the paper's §7 case
	// for retaining years of measurements.
	Retention time.Duration
	// DownsampleAfter rewrites sealed segments older than this with
	// DownsampleStep-bucketed means instead of dropping them — the
	// middle ground between full fidelity and deletion.
	DownsampleAfter time.Duration
	// DownsampleStep is the bucket width for age-based downsampling.
	// Default 1 minute.
	DownsampleStep time.Duration
	// Registry, when set, books uncharted_historian_* metrics.
	Registry *obs.Registry
}

func (o *Options) setDefaults() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.FlushSamples <= 0 {
		o.FlushSamples = 512
	}
	if o.FsyncEveryBytes < 0 {
		o.FsyncEveryBytes = 0
	} else if o.FsyncEveryBytes == 0 {
		o.FsyncEveryBytes = 1 << 20
	}
	if o.DownsampleStep <= 0 {
		o.DownsampleStep = time.Minute
	}
}

// slot is one buffered sample in the form the codec reads: UTC
// nanoseconds since the Unix epoch and the value, sixteen bytes with no
// pointer in them.
type slot struct {
	t int64
	v float64
}

// A point's buffer is a list of fixed chunks carved from store-owned
// slabs; a flush gives its chunks back to the store's free list.
const (
	chunkSlots = 64
	slabChunks = 16
)

// pointBuffer is the in-memory tail of one point: samples appended
// since its last flushed block, in append order.
type pointBuffer struct {
	key        PointKey
	typ, flags byte
	chunks     [][]slot // full chunks, then the one being filled
	n          int      // samples buffered
	journaled  int      // how many of them a journal frame holds
}

// live returns the buffered samples of chunk k.
func (b *pointBuffer) live(k int) []slot {
	return b.chunks[k][:min(chunkSlots, b.n-k*chunkSlots)]
}

// push appends one sample to buf, starting a chunk — a recycled one, or
// a piece of the slab — when the last is full.
func (st *Store) push(buf *pointBuffer, s slot) {
	i := buf.n % chunkSlots
	if i == 0 {
		var c []slot
		if k := len(st.free); k > 0 {
			c, st.free = st.free[k-1], st.free[:k-1]
		} else {
			if len(st.slab) == 0 {
				st.slab = make([]slot, slabChunks*chunkSlots)
			}
			c, st.slab = st.slab[:chunkSlots:chunkSlots], st.slab[chunkSlots:]
		}
		buf.chunks = append(buf.chunks, c)
	}
	buf.chunks[len(buf.chunks)-1][i] = s
	buf.n++
}

// gather copies buf's samples from index from on into the store's
// encoding scratch.
func (st *Store) gather(buf *pointBuffer, from int) []slot {
	st.scratch = st.scratch[:0]
	for k := from / chunkSlots; k < len(buf.chunks); k++ {
		st.scratch = append(st.scratch, buf.live(k)[max(0, from-k*chunkSlots):]...)
	}
	return st.scratch
}

// drain empties buf and puts its chunks on the free list.
func (st *Store) drain(buf *pointBuffer) {
	st.free = append(st.free, buf.chunks...)
	clear(buf.chunks)
	buf.chunks = buf.chunks[:0]
	buf.n, buf.journaled = 0, 0
}

// Unix seconds whose nanosecond count fits an int64 (1677-09-21 …
// 2262-04-11, a second short of the type's range at either end): the
// times a slot, and a block, can hold. physical packs to the same
// bounds.
const (
	minStorableSec = math.MinInt64/1_000_000_000 + 1
	maxStorableSec = math.MaxInt64/1_000_000_000 - 1
)

func storable(t time.Time) bool {
	sec := t.Unix()
	return sec >= minStorableSec && sec <= maxStorableSec
}

// stationBuffers is the write handle for one station: its points by
// address. A frame's samples all belong to one station, so the handle
// is resolved once per frame and each sample costs an integer lookup.
type stationBuffers map[uint32]*pointBuffer

// Store is the embedded historian: buffered writes, compressed
// append-only segments, and queries that merge disk with the
// in-memory tail. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	sealed   []*segment
	active   *segment
	nextSeq  int
	stations map[string]stationBuffers
	order    []*pointBuffer // every buffer, in first-append order: the flush order
	unsynced int64          // record bytes written since the last fsync
	closed   bool
	// recs and staged are the write batch being built: encoded records
	// and their index entries, kept between flushes so a flush reuses
	// their storage and reaches the file as one write.
	recs   []byte
	staged []stagedBlock
	// free and slab hold the buffers' chunks; scratch is one buffer's
	// samples gathered for encoding.
	free    [][]slot
	slab    []slot
	scratch []slot
	// journal is the Sync journal (journal.go), opened at its first
	// frame; jsize its length; frame the frame being built.
	journal *os.File
	jsize   int64
	frame   []byte

	m *storeMetrics
}

// NamespaceDir returns the directory of namespace ns under root, for
// Open. The namespace must be a single clean path element — tenant
// names map onto isolated per-tenant stores under one configured root
// without any chance of escaping it.
func NamespaceDir(root, ns string) (string, error) {
	if ns == "" || ns != filepath.Base(ns) || ns == "." || ns == ".." ||
		strings.ContainsAny(ns, `/\`) {
		return "", fmt.Errorf("historian: invalid namespace %q", ns)
	}
	return filepath.Join(root, ns), nil
}

// Open opens (or creates) a historian under dir. An unsealed last
// segment — the active one at crash or shutdown — is recovered: its
// records are re-indexed by scanning and a torn tail, if any, is
// truncated. Then the Sync journal is replayed, so every sample
// appended before the last Sync returned is back; the replayed samples
// are written to blocks and the journal emptied. One process may have
// a directory open at a time: recovery truncates files in place.
func Open(dir string, opts Options) (*Store, error) {
	opts.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:      dir,
		opts:     opts,
		stations: make(map[string]stationBuffers),
		m:        newStoreMetrics(opts.Registry),
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		seg, torn, err := openSegment(filepath.Join(dir, name))
		if err != nil {
			st.closeAll()
			return nil, err
		}
		st.m.noteTorn(torn)
		seq := segmentSeq(name)
		if seq >= st.nextSeq {
			st.nextSeq = seq + 1
		}
		if i == len(names)-1 && !seg.sealed {
			st.active = seg
		} else {
			// A sealed-looking unsealed segment in the middle means a
			// crash raced rotation; seal it now so it is indexable.
			if !seg.sealed {
				if err := seg.seal(); err != nil {
					st.closeAll()
					return nil, err
				}
			}
			st.sealed = append(st.sealed, seg)
		}
	}
	if st.active == nil {
		if err := st.rotateLocked(); err != nil {
			st.closeAll()
			return nil, err
		}
	}
	if err := st.replayJournalLocked(); err != nil {
		st.closeAll()
		return nil, fmt.Errorf("historian: replaying %s: %w", journalName, err)
	}
	st.m.noteSegments(len(st.sealed) + 1)
	return st, nil
}

// segmentNames lists segment files in sequence order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".useg") {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool { return segmentSeq(names[i]) < segmentSeq(names[j]) })
	return names, nil
}

func segmentSeq(name string) int {
	var seq int
	fmt.Sscanf(name, "seg-%d.useg", &seq)
	return seq
}

func segmentName(seq int) string { return fmt.Sprintf("seg-%08d.useg", seq) }

// rotateLocked seals the current active segment (if any) and starts a
// fresh one.
func (st *Store) rotateLocked() error {
	if st.active != nil {
		if err := st.active.seal(); err != nil {
			return err
		}
		st.sealed = append(st.sealed, st.active)
		st.active = nil
		st.unsynced = 0
	}
	seg, err := createSegment(filepath.Join(st.dir, segmentName(st.nextSeq)))
	if err != nil {
		return err
	}
	st.nextSeq++
	st.active = seg
	st.m.noteSegments(len(st.sealed) + 1)
	return nil
}

// Append buffers one sample for a point. typ carries the dialect and
// its local type code (for IEC 104, numerically the TypeID); command
// flags control-direction (setpoint) series. The buffer is flushed to
// a compressed block at Options.FlushSamples. A time outside
// 1678-2262, the zero time included, cannot be stored and is an error.
func (st *Store) Append(key PointKey, typ physical.PointType, command bool, s physical.Sample) error {
	if !storable(s.T) {
		return fmt.Errorf("historian: %v: time %v outside the storable range", key, s.T)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	st.m.noteAppends(1)
	buf := st.bufferLocked(st.stationLocked(key.Station), key, typ.Code(), pointFlags(typ, command))
	return st.appendLocked(buf, slot{t: s.T.UnixNano(), v: s.V})
}

// appendPoints buffers one frame's measurements under a single lock —
// the recorder's form of Append. proto types the points as
// physical.Store.FeedPoints types them, and a point with no time of its
// own is stamped at, the capture time. A point whose time cannot be
// stored is skipped and counted as dropped, not an error. It returns
// how many samples it appended and the first append error.
func (st *Store) appendPoints(station string, proto protocol.ID, pts []protocol.Point, at time.Time) (n int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, os.ErrClosed
	}
	sb := st.stationLocked(station)
	dropped := 0
	for i := range pts {
		p := &pts[i]
		t := p.T
		if t.IsZero() {
			t = at
		}
		if !storable(t) {
			dropped++
			continue
		}
		n++
		typ := physical.TypeOf(proto, p.Code)
		e := st.appendLocked(st.bufferLocked(sb, PointKey{Station: station, IOA: p.IOA}, typ.Code(), pointFlags(typ, p.Command)), slot{t: t.UnixNano(), v: p.V})
		if e != nil && err == nil {
			err = e
		}
	}
	st.m.noteAppends(n)
	st.m.noteDropped(dropped)
	return n, err
}

func (st *Store) stationLocked(name string) stationBuffers {
	sb := st.stations[name]
	if sb == nil {
		sb = make(stationBuffers)
		st.stations[name] = sb
	}
	return sb
}

// pointFlags is the flags byte a point of typ is stored under.
func pointFlags(typ physical.PointType, command bool) byte {
	flags := byte(typ.Proto()) << flagProtoShift
	if command {
		flags |= flagCommand
	}
	return flags
}

// bufferLocked returns key's buffer in its station's handle sb,
// creating it with the stored type and flags bytes.
func (st *Store) bufferLocked(sb stationBuffers, key PointKey, typ, flags byte) *pointBuffer {
	buf := sb[key.IOA]
	if buf == nil {
		buf = &pointBuffer{key: key, typ: typ, flags: flags}
		sb[key.IOA] = buf
		st.order = append(st.order, buf)
	}
	return buf
}

func (st *Store) appendLocked(buf *pointBuffer, s slot) error {
	st.push(buf, s)
	if buf.n >= st.opts.FlushSamples {
		if err := st.stageLocked(buf); err != nil {
			return err
		}
		return st.writeStagedLocked()
	}
	return nil
}

// stageLocked encodes a point's buffer as one block record at the end
// of the write batch. Rotation and the batched fsync are decided after
// every record, exactly as if each had been written on its own — the
// batch goes out first whenever one of them is due — so segment files
// do not depend on how records were batched.
func (st *Store) stageLocked(buf *pointBuffer) error {
	samples := st.gather(buf, 0)
	sortSlots(samples)
	var blk stagedBlock
	st.recs, blk = appendRecord(st.recs, buf, samples)
	st.staged = append(st.staged, blk)
	pending := int64(len(st.recs))
	rotate := st.active.size+pending >= st.opts.MaxSegmentBytes
	if !rotate && (st.opts.FsyncEveryBytes <= 0 || st.unsynced+pending < st.opts.FsyncEveryBytes) {
		return nil
	}
	if err := st.writeStagedLocked(); err != nil {
		return err
	}
	if rotate {
		return st.rotateLocked()
	}
	return st.syncActiveLocked()
}

// writeStagedLocked appends the write batch to the active segment with
// one write, then empties the buffers it drained. If the write fails
// the batch is dropped and every buffer keeps its samples.
func (st *Store) writeStagedLocked() error {
	recs, staged := st.recs, st.staged
	st.recs, st.staged = recs[:0], staged[:0]
	if len(recs) == 0 {
		return nil
	}
	if err := st.active.writeBatch(recs, staged); err != nil {
		return err
	}
	for _, blk := range staged {
		st.m.noteBlock(int(blk.meta.Count), int(blk.meta.Bytes),
			recordHeaderSize(len(blk.buf.key.Station))+int(blk.meta.Bytes)+4)
		st.drain(blk.buf)
	}
	st.unsynced += int64(len(recs))
	return nil
}

func (st *Store) syncActiveLocked() error {
	if st.unsynced == 0 {
		return nil
	}
	if err := st.active.f.Sync(); err != nil {
		return err
	}
	st.unsynced = 0
	st.m.noteFsync()
	return nil
}

// Flush writes every buffered sample to disk as blocks (without
// forcing an fsync).
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.flushAllLocked()
}

func (st *Store) flushAllLocked() error {
	for _, buf := range st.order {
		if buf.n > 0 {
			if err := st.stageLocked(buf); err != nil {
				return err
			}
		}
	}
	return st.writeStagedLocked()
}

// Sync is the snapshot-stage durability point: every sample appended
// before it returns survives a crash. It journals what was buffered
// since the last Sync (journal.go) and writes no block, so a point's
// blocks hold FlushSamples samples however often Sync runs; a Sync with
// nothing new writes and fsyncs nothing.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.journalLocked()
}

// Close flushes, fsyncs, empties the journal and closes every file.
// The active segment is left unsealed so the next Open resumes
// appending to it with zero torn bytes.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if err := st.resetJournalLocked(); err != nil {
		return err
	}
	st.closed = true
	for _, buf := range st.order {
		buf.chunks = nil
	}
	st.free, st.slab, st.scratch = nil, nil, nil
	return st.closeAll()
}

func (st *Store) closeAll() error {
	var first error
	for _, seg := range st.sealed {
		if err := seg.close(); err != nil && first == nil {
			first = err
		}
	}
	if st.active != nil {
		if err := st.active.close(); err != nil && first == nil {
			first = err
		}
	}
	if st.journal != nil {
		if err := st.journal.Close(); err != nil && first == nil {
			first = err
		}
		st.journal = nil
	}
	return first
}

// Rotate flushes all buffers, seals the active segment, and starts a
// fresh one. Retention works at segment granularity, so rotating
// before Compact gives it a clean boundary to age out.
func (st *Store) Rotate() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	if err := st.flushAllLocked(); err != nil {
		return err
	}
	return st.rotateLocked()
}

// Compact applies retention at the given reference time: sealed
// segments whose newest sample is older than Retention are deleted;
// otherwise, segments older than DownsampleAfter are rewritten with
// bucketed means (idempotent — an already-downsampled segment is left
// alone). The active segment is never rewritten. The journal is
// emptied first (the buffers go to blocks), because downsampling moves
// the records a journal mark counts on.
func (st *Store) Compact(now time.Time) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	if err := st.resetJournalLocked(); err != nil {
		return err
	}
	kept := st.sealed[:0]
	for _, seg := range st.sealed {
		last := time.Unix(0, seg.lastTS())
		switch {
		case st.opts.Retention > 0 && now.Sub(last) > st.opts.Retention:
			if err := seg.close(); err != nil {
				return err
			}
			if err := os.Remove(seg.path); err != nil {
				return err
			}
			st.m.noteCompaction("drop")
		case st.opts.DownsampleAfter > 0 && now.Sub(last) > st.opts.DownsampleAfter && !segDownsampled(seg):
			ds, err := st.downsampleSegment(seg)
			if err != nil {
				return err
			}
			kept = append(kept, ds)
			st.m.noteCompaction("downsample")
		default:
			kept = append(kept, seg)
		}
	}
	st.sealed = kept
	st.m.noteSegments(len(st.sealed) + 1)
	return nil
}

// flagDownsampled marks records produced by age-based downsampling,
// making Compact idempotent.
const flagDownsampled = 0x02

func segDownsampled(s *segment) bool {
	if len(s.points) == 0 {
		return false
	}
	for _, pm := range s.points {
		if pm.Flags&flagDownsampled == 0 {
			return false
		}
	}
	return true
}

// downsampleSegment rewrites one sealed segment with mean-per-bucket
// samples at Options.DownsampleStep, via temp file + rename so a crash
// mid-compaction leaves the original intact.
func (st *Store) downsampleSegment(seg *segment) (*segment, error) {
	tmp := seg.path + ".tmp"
	out, err := createSegment(tmp)
	if err != nil {
		return nil, err
	}
	step := st.opts.DownsampleStep
	var rec []byte
	for _, key := range seg.order {
		pm := seg.points[key]
		var all []physical.Sample
		for _, bm := range pm.Blocks {
			payload, err := seg.readRecordPayload(key, bm)
			if err != nil {
				out.close()
				os.Remove(tmp)
				return nil, err
			}
			samples, err := DecodeBlock(payload)
			if err != nil {
				out.close()
				os.Remove(tmp)
				return nil, err
			}
			all = append(all, samples...)
		}
		sortSamples(all)
		ds := downsampleMean(all, step)
		if len(ds) == 0 {
			continue
		}
		var blk stagedBlock
		rec, blk = appendRecord(rec[:0], &pointBuffer{key: key, typ: pm.Type, flags: pm.Flags | flagDownsampled}, ds)
		if err := out.writeBatch(rec, []stagedBlock{blk}); err != nil {
			out.close()
			os.Remove(tmp)
			return nil, err
		}
	}
	if err := out.seal(); err != nil {
		out.close()
		os.Remove(tmp)
		return nil, err
	}
	if err := out.close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := seg.close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, seg.path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	reopened, _, err := openSegment(seg.path)
	return reopened, err
}

// downsampleMean reduces time-sorted samples to one mean per step
// bucket, stamped at the bucket start.
func downsampleMean(s []physical.Sample, step time.Duration) []slot {
	var out []slot
	i := 0
	for i < len(s) {
		start := s[i].T.Truncate(step)
		end := start.Add(step)
		var sum float64
		n := 0
		for i < len(s) && s[i].T.Before(end) {
			sum += s[i].V
			n++
			i++
		}
		out = append(out, slot{t: start.UnixNano(), v: sum / float64(n)})
	}
	return out
}
