package historian

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/physical"
)

// Options tunes a Store. The zero value is usable: Open fills in
// defaults.
type Options struct {
	// MaxSegmentBytes seals the active segment once its record data
	// reaches this size and starts a new one. Default 8 MiB.
	MaxSegmentBytes int64
	// FlushSamples flushes a point's buffer to a compressed block once
	// it holds this many samples. Default 512. Larger blocks compress
	// better; smaller ones bound the data at risk in a crash.
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

// pointBuffer is the in-memory tail of one point: samples appended
// since its last flushed block.
type pointBuffer struct {
	key        PointKey
	typ, flags byte
	samples    []physical.Sample
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
// truncated, losing at most the last partially written block.
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
// a compressed block at Options.FlushSamples.
func (st *Store) Append(key PointKey, typ physical.PointType, command bool, s physical.Sample) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	st.m.noteAppends(1)
	return st.appendLocked(st.stationLocked(key.Station), key, typ, command, s)
}

// appendASDU buffers every value-bearing information object of one
// frame under a single lock — the recorder's form of Append. It returns
// how many samples the frame carried and the first append error.
func (st *Store) appendASDU(station string, a *iec104.ASDU, at time.Time, command bool) (n int, err error) {
	typ := physical.IEC104Type(a.Type)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, os.ErrClosed
	}
	sb := st.stationLocked(station)
	physical.EachValue(a, at, func(ioa uint32, t time.Time, v float64) {
		n++
		e := st.appendLocked(sb, PointKey{Station: station, IOA: ioa}, typ, command, physical.Sample{T: t, V: v})
		if e != nil && err == nil {
			err = e
		}
	})
	st.m.noteAppends(n)
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

func (st *Store) appendLocked(sb stationBuffers, key PointKey, typ physical.PointType, command bool, s physical.Sample) error {
	buf := sb[key.IOA]
	if buf == nil {
		flags := byte(typ.Proto()) << flagProtoShift
		if command {
			flags |= flagCommand
		}
		buf = &pointBuffer{key: key, typ: typ.Code(), flags: flags}
		sb[key.IOA] = buf
		st.order = append(st.order, buf)
	}
	buf.samples = append(buf.samples, s)
	if len(buf.samples) >= st.opts.FlushSamples {
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
	sortSamples(buf.samples)
	var blk stagedBlock
	st.recs, blk = appendRecord(st.recs, buf)
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
		blk.buf.samples = blk.buf.samples[:0]
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
		if len(buf.samples) > 0 {
			if err := st.stageLocked(buf); err != nil {
				return err
			}
		}
	}
	return st.writeStagedLocked()
}

// Sync flushes all buffers and fsyncs the active segment — the
// snapshot-stage durability point.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.flushAllLocked(); err != nil {
		return err
	}
	return st.syncActiveLocked()
}

// Close flushes, fsyncs, and closes all segment files. The active
// segment is left unsealed so the next Open resumes appending to it
// with zero torn bytes.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if err := st.flushAllLocked(); err != nil {
		return err
	}
	if err := st.syncActiveLocked(); err != nil {
		return err
	}
	st.closed = true
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
// alone). The active segment is never touched.
func (st *Store) Compact(now time.Time) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
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
		rec, blk = appendRecord(rec[:0], &pointBuffer{key: key, typ: pm.Type, flags: pm.Flags | flagDownsampled, samples: ds})
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
func downsampleMean(s []physical.Sample, step time.Duration) []physical.Sample {
	var out []physical.Sample
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
		out = append(out, physical.Sample{T: start, V: sum / float64(n)})
	}
	return out
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }
