// Package stream turns the offline measurement pipeline into a
// long-running service. Every ingest — a finished capture, a growing
// capture being tailed, a time-scaled replay, an in-process simulator
// feed — runs through one read loop (Pull): a reader goroutine pulls
// records from a Source and fans batches out to N analysis shards
// over bounded queues. A run has one reader per planned source: a
// seekable capture splits into up to Config.Readers record-aligned
// segments (pcap.PlanSegments) read in parallel, everything else is
// the one-source case of the same stage. Each reader owns its batch
// pool, its trace lane (reader0..N-1) and one queue per shard, so no
// channel or lock is shared across readers.
//
// Traffic is partitioned by unordered IP pair, so every TCP flow,
// every logical server/outstation connection and every directional
// session is owned by exactly one shard: each shard runs an ordinary
// *core.Analyzer with no locks on the hot path, and the per-connection
// token order the §6.3 Markov models depend on is preserved — each
// shard drains its per-reader queues strictly in segment order, so it
// sees exactly the packet order a sequential read would deliver.
// Shard snapshots are core.Partial values, merged into a rolling
// Profile that is published to Profile/OnSnapshot readers (the
// pipeline's analyzer segment serves it over HTTP) and journalled as
// JSONL; snapshots use a sealed-epoch protocol (each
// shard reseals its own partial between batches) so publishing
// never stops the world. Bounded queues give backpressure: a reader
// either blocks (lossless, default) or sheds whole batches with an
// explicit drop counter when a shard falls behind.
package stream

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pcap"
)

// DropPolicy says what the reader does when a shard's queue is full.
type DropPolicy int

// Policies.
const (
	// Block waits for the shard: lossless, backpressure propagates to
	// the source. The right choice for replay and bounded captures.
	Block DropPolicy = iota
	// DropNewest sheds the incoming batch and counts it: the profile
	// becomes approximate but the reader never stalls. The right
	// choice when the source is an unstoppable live feed.
	DropNewest
)

// Config parameterises an Engine.
type Config struct {
	// Workers is the shard count; minimum (and default) 1.
	Workers int
	// Readers is how many parallel segment readers ingest a seekable
	// capture: a source that implements SegmentedSource (FileSource
	// does) is split into up to this many record-aligned segments,
	// one reader each. Every other source, and a capture too small to
	// split, is read by one. Minimum (and default) 1.
	Readers int
	// QueueDepth is each reader's buffering budget in batches (default
	// 64), split across its per-shard queues. Splitting — rather than
	// giving every queue the full budget — keeps the in-flight slab
	// working set, and with it the engine's allocation count, flat as
	// shards are added: a reader that sprints ahead of the analysis can
	// pin at most QueueDepth batches regardless of the shard count.
	QueueDepth int
	// Policy picks Block (default) or DropNewest.
	Policy DropPolicy
	// SnapshotEvery is how often the engine checks the shards for new
	// content and, when there is some, publishes a rolling profile: a
	// tick that finds nothing consumed or shed since the last publish
	// publishes nothing. 0 disables the periodic snapshotter (a final
	// profile is still produced).
	SnapshotEvery time.Duration
	// PollInterval is how long the reader sleeps on ErrNotReady
	// (default DefaultPollInterval).
	PollInterval time.Duration
	// IdleTimeout, when set, evicts flows idle for that long from the
	// per-shard trackers (streaming memory bound; taxonomy is kept).
	IdleTimeout time.Duration
	// ClusterK / ClusterSeed parameterise the profile's session
	// clustering; K 0 disables it.
	ClusterK    int
	ClusterSeed int64
	// Names resolves endpoint addresses for reports.
	Names map[netip.Addr]string
	// Protocols lists additional dialects each shard decodes beyond
	// IEC 104 ("c37118", "modbus"), or "auto" for content detection of
	// every registered dialect. Empty keeps the single-protocol
	// pipeline, byte-identical with earlier releases.
	Protocols []string
	// Registry / Journal instrument the engine and its analyzers; both
	// optional.
	Registry *obs.Registry
	Journal  *obs.Journal
	// Trace, when set, attaches the flight recorder: each reader, each
	// shard, the segment planner and the snapshot path get their own
	// lanes, sampled spans feed uncharted_stage_seconds{stage,shard},
	// and every published snapshot drains new spans into the Journal
	// as obs.EventSpan lines. Export the rings with
	// Trace.WriteChromeTrace after Run.
	Trace *trace.Recorder
	// Observer, when set, attaches a core.FrameObserver to each shard
	// (e.g. an ids.Monitor). Called once per shard at start; monitors
	// are per-shard, so no locking is needed inside them, but a shared
	// alert sink must be serialised by the caller.
	Observer func(shard int) core.FrameObserver
	// Historian, when set, records every IEC 104 measurement into the
	// durable store: each shard gets a historian.Recorder composed with
	// its Observer, and every Snapshot flushes and fsyncs the store so
	// the on-disk history trails the live profile by at most one
	// snapshot period. A failed append or final sync fails Run.
	Historian *historian.Store
	// MaxPointSamples, when positive, caps each shard's in-memory
	// samples per series (physical.Store.SetMaxSamplesPerSeries): the
	// bound that lets -follow runs hold steady-state memory while the
	// historian keeps the full history on disk.
	MaxPointSamples int
	// OnSnapshot receives every published snapshot: the merged Partial,
	// the derived Profile and whether this is the final end-of-stream
	// publish. A snapshot is published when its content changed — the
	// first tick, every tick after a shard consumed a record or the
	// engine shed one, and the final publish — so an idle feed calls it
	// once, not once per tick. Called from the snapshot path with the
	// engine lock held: keep it fast (hand off to a channel) and do not
	// call back into the engine. The pipeline runtime uses it to forward snapshots
	// down profiles edges and to run live drift detection.
	OnSnapshot func(p core.Partial, prof *Profile, final bool)
}

const (
	// BatchSize is how many packets ride one channel send.
	BatchSize = 64
	// DefaultPollInterval is Config.PollInterval's default.
	DefaultPollInterval = 25 * time.Millisecond
)

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Readers < 1 {
		c.Readers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.PollInterval <= 0 {
		c.PollInterval = DefaultPollInterval
	}
}

// queueCap is one per-(reader,shard) queue's capacity: the reader's
// QueueDepth budget split across the shard queues, minimum 1.
func (c *Config) queueCap() int {
	if d := c.QueueDepth / c.Workers; d > 1 {
		return d
	}
	return 1
}

// curIdle is the shard's published stage while it waits on its queue;
// any other value is the int32 of the trace.Stage it is executing.
// A reader loads it when a queue backs up to attribute the stall or
// loss to the stage actually holding the shard.
const curIdle int32 = -1

// causeName renders a shard's published stage for attribution labels.
func causeName(cur int32) string {
	if cur < 0 {
		return "idle"
	}
	return trace.Stage(cur).String()
}

// sealedForever is the sealed-epoch sentinel a shard publishes on
// exit: every pending and future snapshot request is satisfied by its
// final partial.
const sealedForever = math.MaxInt64

// shard owns one analyzer. Readers communicate with it only through
// its per-reader queues, so analyzer state needs no locks. ins holds
// one dedicated bounded queue per reader; the shard drains them
// strictly in segment order (queue r is read to exhaustion — the
// reader closes it when its source ends — before queue r+1 is
// touched), which reproduces the sequential capture order exactly.
// Readers ahead of the shard's current segment block on their own
// queue, so segment prefetch is pipelined but never reordered.
type shard struct {
	id int
	an *core.Analyzer
	// rec is the shard's historian recorder, nil without a historian;
	// Run reads its first append error after the drain.
	rec *historian.Recorder
	// ins is the per-reader queue fan-in, held behind an atomic pointer
	// because Run sizes it to the planned reader count after the engine
	// is already visible to Status() callers; nil before Run.
	ins  atomic.Pointer[[]chan *batch]
	wake chan struct{} // capacity 1: pokes the shard to seal a snapshot
	done chan struct{}

	// lane is this shard's flight-recorder lane (nil when tracing is
	// off); cur is the stage the worker is in right now, read by the
	// readers for backpressure attribution; curSeg is the queue index
	// being drained, so a blocked reader can tell "shard is slow" from
	// "shard has not reached my segment yet".
	lane   *trace.Lane
	cur    atomic.Int32
	curSeg atomic.Int32
	// scratch holds one raw batch's decoded packets between the decode
	// and feed passes; reused across batches. Per shard, not per batch:
	// a 64-packet slice on every in-flight batch would be megabytes.
	scratch []pcap.Packet

	// Sealed-epoch snapshot protocol: the engine bumps epoch and pokes
	// wake; the shard, between batches (or while idle), reseals its
	// partial into buf, advances sealedSeq and signals sealedNote.
	// Snapshot never stops the shard — it waits for the seal and merges
	// off the hot path.
	epoch      *atomic.Int64 // the engine's snapshot epoch counter
	sealedSeq  atomic.Int64
	sealedNote chan struct{} // capacity 1: "sealedSeq moved"
	// fed counts the records the shard has taken off its queues,
	// decoded or not (one add per batch); sealedFed is fed as of buf,
	// written beside it and read under the same sealedSeq ordering.
	// A seal with nothing fed since the last one keeps buf as it is.
	fed       atomic.Int64
	sealedFed int64
	// buf is the shard's last seal, written over by the next one. The
	// shard writes it only before advancing sealedSeq, and Snapshot reads
	// it only once sealedSeq has reached its epoch, so the atomic orders
	// the read after the write. The shard rewrites it for epoch N+1,
	// which Snapshot issues, under e.mu, only after its merge of epoch N
	// has returned — and MergePartials copies every value it reads from
	// a seal except the chain tables, which are fresh each seal, so
	// nothing published aliases buf. Once the shard has exited (done is
	// closed), Snapshot reseals buf itself, under e.mu.
	buf core.Partial
}

// queues returns the current per-reader fan-in.
func (s *shard) queues() []chan *batch {
	if qs := s.ins.Load(); qs != nil {
		return *qs
	}
	return nil
}

func (s *shard) run() {
	defer func() {
		// Final seal, lazily: publish the forever mark and exit.
		// Building a Partial here would cost a full aggregate copy per
		// shard per run whether or not anyone asked; a Snapshot that
		// observes the mark waits for done and reads the quiescent
		// analyzer directly instead.
		s.sealedSeq.Store(sealedForever)
		close(s.done)
	}()
	qs := s.queues()
	for qi := range qs {
		s.curSeg.Store(int32(qi))
		for in := qs[qi]; in != nil; {
			select {
			case b, ok := <-in:
				if !ok {
					in = nil
					break
				}
				s.consume(b)
				s.maybeSeal()
			case <-s.wake:
				s.maybeSeal()
			}
		}
	}
}

// maybeSeal reseals the shard's partial into buf when a snapshot epoch
// newer than the last seal is pending. Called between batches and when
// poked, so the analyzer is always quiescent here. A shard that was fed
// nothing since its last seal acknowledges the epoch with buf as it
// is: the analyzer has not moved, and nothing published aliases buf.
func (s *shard) maybeSeal() {
	want := s.epoch.Load()
	last := s.sealedSeq.Load()
	if want <= last {
		return
	}
	if fed := s.fed.Load(); fed != s.sealedFed || last == 0 {
		s.an.PartialInto(&s.buf)
		s.sealedFed = fed
	}
	s.sealedSeq.Store(want)
	select {
	case s.sealedNote <- struct{}{}:
	default: // an unread note already tells Snapshot to look again
	}
}

// poke nudges the shard's seal check without blocking; a pending poke
// is as good as another.
func (s *shard) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// consume feeds one batch into the shard's analyzer and recycles it to
// the pool it came from. Raw records are decoded here — on the shard
// worker, off the reader goroutine — and records that fail link-layer
// decoding are skipped, matching the offline ReadPCAP path exactly, and
// counted under uncharted_analyzer_decode_errors_total.
// Decode and feed run as separate passes so each gets its own span and
// the published stage tells the reader which one a backlog is stuck in.
// A record is decoded in place into its scratch slot and fed from
// there, so no Packet is copied on the way. The analyzer's counters are
// published once per batch, here: /metrics trails a shard by at most
// the batch it is working on.
func (s *shard) consume(b *batch) {
	pkts := b.pkts
	var slots []pcap.Packet
	if raw := len(b.hdrs) + len(b.frames); raw > 0 {
		s.cur.Store(int32(trace.StageDecode))
		sp := s.lane.Start()
		if cap(s.scratch) < raw {
			s.scratch = make([]pcap.Packet, raw)
		}
		slots = s.scratch[:raw]
		n := 0
		for i := 0; i < raw; i++ {
			data, ci := b.raw(i)
			if pcap.DecodePacketInto(&slots[n], b.link, ci, data) == nil {
				n++
			}
		}
		s.lane.End(sp, trace.StageDecode, raw, -1)
		s.an.NoteDecodeErrors(raw - n)
		pkts = slots[:n]
	}
	s.cur.Store(int32(trace.StageFeed))
	for i := range pkts {
		s.an.Feed(&pkts[i])
	}
	s.an.FlushMetrics()
	s.fed.Add(int64(b.size()))
	// The slots reference record bytes (a failed decode leaves some in
	// the slot after the last good one): drop them all before the slab
	// goes back to the pool.
	clear(slots)
	b.recycle()
	s.cur.Store(curIdle)
}

// reader is one ingest goroutine: the Pull sink that routes its
// source's records into per-shard batches and enqueues them on queue
// column r. It owns its batch pool and its trace lane (nothing is
// shared across readers but the shards themselves) and carries the
// progress statusz reports.
type reader struct {
	e       *Engine
	r       int
	src     Source
	lane    *trace.Lane
	pool    batchPool
	pending []*batch // the batch being filled, per shard

	info  SegmentInfo
	start time.Time
	bytes atomic.Int64 // record payload bytes consumed so far
	endNs atomic.Int64 // unix nanos when the source ended; 0 while running
}

// Engine is the streaming pipeline. Create with New, drive with Run;
// Profile and Snapshot may be called from other goroutines while Run
// is in flight.
type Engine struct {
	cfg     Config
	shards  []*shard
	metrics *engineMetrics
	// poison turns on the readers' slab poisoning (see batchPool) and
	// batchSize is how many records a reader batches per shard
	// (BatchSize); tests set them before Run.
	poison    bool
	batchSize int

	trcSnap *trace.Lane
	trcPlan *trace.Lane
	state   atomic.Int32
	started atomic.Int64 // unix nanos at Run start; 0 before

	snapEpoch atomic.Int64
	readers   atomic.Pointer[[]*reader] // nil until Run

	// pub is the last publish; seq numbers publishes. lastTick and
	// lastPub are the unix nanos of the last content check and of the
	// last publish, for /statusz.
	pub      atomic.Pointer[published]
	seq      int
	lastTick atomic.Int64
	lastPub  atomic.Int64

	mu      sync.Mutex
	running bool
	final   core.Partial
}

// published is one publish, stored as one record so a reader that sees
// a profile's Seq also sees the partial behind it. fed and dropped are
// the shards' sealed record count and the engine's shed-packet total it
// was cut at: a tick that finds both unchanged has nothing new.
type published struct {
	prof         *Profile
	part         core.Partial
	fed, dropped int64
}

// Engine lifecycle states, published for readiness probes.
const (
	stateIdle int32 = iota
	stateRunning
	stateDraining
	stateDone
)

// New builds an engine; Run starts it.
func New(cfg Config) *Engine {
	cfg.fill()
	e := &Engine{cfg: cfg, metrics: newEngineMetrics(cfg.Registry, cfg.Workers), batchSize: BatchSize}
	e.trcSnap = cfg.Trace.Lane("snapshot")
	e.trcPlan = cfg.Trace.Lane("plan")
	// Merges, publishes and segment plans are rare and off the hot
	// path; record every one of them regardless of the sampling rate.
	e.trcSnap.SetSampleEvery(1)
	e.trcPlan.SetSampleEvery(1)
	for i := 0; i < cfg.Workers; i++ {
		lane := cfg.Trace.Lane(strconv.Itoa(i))
		an := core.NewAnalyzer(cfg.Names)
		if err := an.EnableProtocolNames(cfg.Protocols...); err != nil {
			// Config.Protocols is validated by the surfaces that accept
			// user input (pipeline configs, -proto flags); an unknown
			// name reaching this far is a programming error.
			panic("stream: " + err.Error())
		}
		if cfg.Registry != nil || cfg.Journal != nil {
			an.Instrument(cfg.Registry, cfg.Journal)
		}
		an.SetTraceLane(lane)
		if cfg.IdleTimeout > 0 {
			an.EnableFlowEviction(cfg.IdleTimeout)
		}
		if cfg.MaxPointSamples > 0 {
			an.Physical().SetMaxSamplesPerSeries(cfg.MaxPointSamples)
		}
		var observer core.FrameObserver
		if cfg.Observer != nil {
			observer = cfg.Observer(i)
		}
		var rec *historian.Recorder
		if cfg.Historian != nil {
			rec = historian.NewRecorder(cfg.Historian)
			rec.SetTraceLane(lane)
			observer = core.Observers(observer, rec)
		}
		if observer != nil {
			an.SetFrameObserver(observer)
		}
		sh := &shard{
			id:         i,
			an:         an,
			rec:        rec,
			wake:       make(chan struct{}, 1),
			sealedNote: make(chan struct{}, 1),
			done:       make(chan struct{}),
			lane:       lane,
			epoch:      &e.snapEpoch,
		}
		sh.cur.Store(curIdle)
		e.shards = append(e.shards, sh)
	}
	return e
}

// shardForPair partitions by unordered IP pair: both directions of a flow
// — and every flow between the same two hosts, so reconnects of one
// logical connection too — land on the same shard.
func (e *Engine) shardForPair(a, b netip.Addr) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(pairHash(a, b) % uint64(len(e.shards)))
}

// FNV-1a, 64 bit. fnvPrime10 is fnvPrime¹⁰ mod 2⁶⁴: hashing a zero byte
// is a bare multiply, so the ten leading zeros of an IPv4 address in
// 16-byte form fold into one.
const (
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
	fnvPrime10 = 0x18a5210383502249
)

// pairHash is FNV-1a over the 16-byte forms of the two addresses, lower
// address first. Which shard owns a host pair decides which shard pins
// a dialect first, so the value is part of the goldens (and of the
// benchmark's own copy of this routing) and must not change; an IPv4
// address just takes 7 multiplies to get there instead of 16.
func pairHash(a, b netip.Addr) uint64 {
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	return fnvAddr(fnvAddr(fnvOffset, a), b)
}

func fnvAddr(h uint64, ip netip.Addr) uint64 {
	if ip.Is4() {
		h *= fnvPrime10
		h = (h ^ 0xff) * fnvPrime
		h = (h ^ 0xff) * fnvPrime
		for _, by := range ip.As4() {
			h = (h ^ uint64(by)) * fnvPrime
		}
		return h
	}
	for _, by := range ip.As16() {
		h = (h ^ uint64(by)) * fnvPrime
	}
	return h
}

// Run consumes the source until io.EOF or ctx cancellation, then
// drains the shards and publishes the final profile. It returns nil on
// clean exhaustion, ctx.Err() on cancellation, or the source's error,
// joined with the historian's error when an append or the final sync
// failed.
//
// The source is first planned into one or more reader inputs (see
// plan); one reader goroutine per input then runs the same read loop.
func (e *Engine) Run(ctx context.Context, src Source) error {
	// Plan before the shards start so the queue fan-in width is known.
	readers := e.attach(e.plan(src))

	e.mu.Lock()
	e.running = true
	e.mu.Unlock()
	e.started.Store(time.Now().UnixNano())
	e.state.Store(stateRunning)

	for _, sh := range e.shards {
		go sh.run()
	}

	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	if e.cfg.SnapshotEvery > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			tick := time.NewTicker(e.cfg.SnapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					e.Snapshot()
				case <-stopSnap:
					return
				}
			}
		}()
	}

	srcErr := e.readAll(ctx, readers)

	e.state.Store(stateDraining)
	close(stopSnap)
	snapWG.Wait()

	// Shut down: every reader has closed its queues, so the shards exit
	// once drained; from here Snapshot serves the final profile instead
	// of waiting on seals.
	e.mu.Lock()
	e.running = false
	for _, sh := range e.shards {
		<-sh.done
	}
	// Every batch is back in its pool. The engine keeps its readers for
	// /statusz, which wants their counters, not their carriers.
	for _, rd := range readers {
		rd.release()
	}
	msp := e.trcSnap.Start()
	parts := make([]core.Partial, len(e.shards))
	for i, sh := range e.shards {
		parts[i] = sh.an.Partial()
	}
	e.final = core.MergePartials(parts)
	e.trcSnap.End(msp, trace.StageMerge, len(parts), -1)
	var fed int64
	for _, sh := range e.shards {
		fed += sh.fed.Load()
	}
	e.seq++
	e.publish(e.final, e.seq, true, fed)
	e.mu.Unlock()
	// The drain is complete: every observed frame has passed through
	// the shard observers, so the historian tail can be made durable.
	herr := e.finishHistorian(e.final.Last)
	e.state.Store(stateDone)
	if herr != nil {
		return errors.Join(srcErr, herr)
	}
	return srcErr
}

// plan turns the source into the reader inputs: up to Config.Readers
// record-aligned segments when it is a SegmentedSource asked for
// parallelism, otherwise — not segmented, too small to split, or the
// planner failed — the source itself, which is the one-reader case of
// the same ingest stage.
func (e *Engine) plan(src Source) []Source {
	if ss, ok := src.(SegmentedSource); ok && e.cfg.Readers > 1 {
		psp := e.trcPlan.Start()
		segs, err := ss.Segments(e.cfg.Readers)
		e.trcPlan.End(psp, trace.StagePlan, len(segs), -1)
		if err == nil && len(segs) > 1 {
			srcs := make([]Source, len(segs))
			for i, seg := range segs {
				srcs[i] = seg
			}
			return srcs
		}
	}
	return []Source{src}
}

// attach builds one reader per planned input and gives every shard one
// queue per reader. Called once, before the shards and readers start.
func (e *Engine) attach(srcs []Source) []*reader {
	readers := make([]*reader, len(srcs))
	for r, src := range srcs {
		rd := &reader{
			e:       e,
			r:       r,
			src:     src,
			lane:    e.cfg.Trace.Lane("reader" + strconv.Itoa(r)),
			pending: make([]*batch, len(e.shards)),
			start:   time.Now(),
		}
		rd.pool.poison = e.poison
		if seg, ok := src.(*segmentSource); ok {
			rd.info = seg.info
		}
		readers[r] = rd
	}
	for _, sh := range e.shards {
		qs := make([]chan *batch, len(readers))
		for r := range qs {
			qs[r] = make(chan *batch, e.cfg.queueCap())
		}
		sh.ins.Store(&qs)
	}
	e.readers.Store(&readers)
	e.metrics.noteReaders(len(readers))
	return readers
}

// Ready reports whether the engine is serving fresh data — the reader
// attached and the shards running — with a reason when it is not. The
// obs.ReadyHandler adapter turns it into a /readyz endpoint.
func (e *Engine) Ready() (bool, string) {
	switch e.state.Load() {
	case stateRunning:
		return true, ""
	case stateDraining:
		return false, "draining"
	case stateDone:
		return false, "stopped"
	}
	return false, "engine not started"
}

// readAll runs every reader to the end of its source and returns the
// first error in segment order (every other segment still drains, so
// an intact tail is analyzed even when a middle segment is corrupt).
func (e *Engine) readAll(ctx context.Context, readers []*reader) error {
	var wg sync.WaitGroup
	errs := make([]error, len(readers))
	for r, rd := range readers {
		wg.Add(1)
		go func(r int, rd *reader) {
			defer wg.Done()
			errs[r] = rd.run(ctx)
		}(r, rd)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is one reader goroutine: the shared read loop over this reader's
// source. Closing the queue column on the way out is the in-order
// fan-in's progress signal — shards move to queue r+1 the moment queue
// r is drained and closed.
func (rd *reader) run(ctx context.Context) error {
	defer func() {
		for _, sh := range rd.e.shards {
			close(sh.queues()[rd.r])
		}
		rd.endNs.Store(time.Now().UnixNano())
	}()
	return Pull(ctx, rd.src, rd.e.cfg.PollInterval, rd.lane, rd)
}

// release drops the reader's batch carriers — the pool's free list and
// any batch left half filled by a cancelled run — once nothing can use
// them again, so a finished engine that is still referenced (a served
// tenant, a graph pass) does not pin QueueDepth slabs per reader.
func (rd *reader) release() {
	rd.pending = nil
	rd.pool.mu.Lock()
	rd.pool.free = nil
	rd.pool.mu.Unlock()
}

// Raw implements RecordSink: it copies the record into a pending slab.
func (rd *reader) Raw(ctx context.Context, data []byte, ci pcap.CaptureInfo, link pcap.LinkType) bool {
	rsp := rd.lane.Start()
	i, b := rd.route(data, link)
	b.addRaw(data, ci)
	return rd.routed(ctx, rsp, i, b)
}

// at routes a record of an image and adds where its header starts to
// the owning shard's pending batch; nothing is copied. A batch reads
// all its records with one Layout: a record with a new one flushes it.
func (rd *reader) at(ctx context.Context, rec imageRecord) bool {
	rsp := rd.lane.Start()
	i, b := rd.route(rec.img[rec.off:rec.end], rec.link)
	if b.layout != rec.layout && len(b.hdrs) > 0 {
		if !rd.flush(ctx, i) {
			return false
		}
		i, b = rd.route(rec.img[rec.off:rec.end], rec.link)
	}
	b.img, b.layout = rec.img, rec.layout
	b.hdrs = append(b.hdrs, rec.hdr)
	b.nbytes += rec.end - rec.off
	return rd.routed(ctx, rsp, i, b)
}

// route picks a raw record's shard by the cheap header peek and returns
// its pending batch. Records the peek cannot classify go to shard 0,
// whose decode then skips them exactly like the offline path would.
func (rd *reader) route(data []byte, link pcap.LinkType) (int, *batch) {
	i := 0
	if len(rd.e.shards) > 1 {
		if sa, da, ok := pcap.PeekIPv4Pair(link, data); ok {
			i = rd.e.shardForPair(sa, da)
		}
	}
	b := rd.fill(i)
	b.link = link
	return i, b
}

// routed closes the route span a Raw or at call opened and flushes
// shard i's batch b once it is full.
func (rd *reader) routed(ctx context.Context, rsp trace.SpanStart, i int, b *batch) bool {
	rd.lane.End(rsp, trace.StageRoute, 1, -1)
	if b.size() >= rd.e.batchSize {
		return rd.flush(ctx, i)
	}
	return true
}

// Packet implements RecordSink for sources that decode themselves.
func (rd *reader) Packet(ctx context.Context, pkt pcap.Packet) bool {
	i := rd.e.shardForPair(pkt.IP.Src, pkt.IP.Dst)
	b := rd.fill(i)
	b.pkts = append(b.pkts, pkt)
	if len(b.pkts) >= rd.e.batchSize {
		return rd.flush(ctx, i)
	}
	return true
}

// Flush implements RecordSink: every pending batch goes out.
func (rd *reader) Flush(ctx context.Context) bool {
	for i := range rd.pending {
		if !rd.flush(ctx, i) {
			return false
		}
	}
	return true
}

// fill returns the batch being filled for shard i.
func (rd *reader) fill(i int) *batch {
	b := rd.pending[i]
	if b == nil {
		b = rd.pool.get()
		rd.pending[i] = b
	}
	return b
}

// flush enqueues shard i's pending batch, if any. Progress is booked
// once per flushed batch, not per record.
func (rd *reader) flush(ctx context.Context, i int) bool {
	b := rd.pending[i]
	if b == nil {
		return true
	}
	rd.pending[i] = nil
	rd.pool.sent(b)
	rd.bytes.Add(int64(b.nbytes))
	rd.e.metrics.noteReaderBytes(rd.r, b.nbytes)
	return rd.enqueue(ctx, i, b)
}

// enqueue hands a batch from this reader to shard i under the
// configured policy. The false return means the context died while
// blocked. Every outcome is attributed: a clean enqueue records the
// queue depth it saw; a full queue reads the shard's published stage
// so the stall (Block) or the loss (DropNewest) is counted against
// the stage that caused it — or against "order" when the shard simply
// has not reached this reader's segment yet. A batch counts as
// dispatched once it is queued: dispatched plus dropped is what was read.
func (rd *reader) enqueue(ctx context.Context, i int, b *batch) bool {
	e, lane := rd.e, rd.lane
	n := b.size() // b belongs to the shard once it is sent
	sh := e.shards[i]
	q := sh.queues()[rd.r]
	sp := lane.Start()
	select {
	case q <- b:
		e.metrics.noteBatch(n)
		depth := len(q)
		e.metrics.noteDepth(i, depth)
		lane.End(sp, trace.StageEnqueue, n, depth)
		return true
	default:
	}
	// The queue is full: shed the batch, or a real reader stall begins.
	cause := stallCause(sh, rd.r)
	if e.cfg.Policy == DropNewest {
		e.metrics.noteDropped(i, n, cause)
		e.metrics.noteDepth(i, cap(q))
		e.cfg.Journal.Log(b.firstTime(), obs.EventDrop, "", map[string]any{
			"shard": i, "packets": n, "cause": cause,
		})
		b.recycle()
		lane.End(sp, trace.StageEnqueue, n, cap(q))
		return true
	}
	stallStart := time.Now()
	select {
	case q <- b:
		e.metrics.noteBatch(n)
		e.metrics.noteStall(i, cause, time.Since(stallStart))
		depth := len(q)
		e.metrics.noteDepth(i, depth)
		lane.End(sp, trace.StageEnqueue, n, depth)
		return true
	case <-ctx.Done():
		return false
	}
}

// stallCause attributes a full queue: "order" when the shard is still
// draining an earlier segment's queue (the reader is ahead of the
// in-order fan-in, not the shard slow), otherwise the stage the shard
// published.
func stallCause(sh *shard, r int) string {
	if int32(r) > sh.curSeg.Load() {
		return "order"
	}
	return causeName(sh.cur.Load())
}

// Snapshot checks the shards for new content and, when there is some,
// merges a consistent-enough cut of all shards into a Partial and
// publishes the derived rolling Profile. It returns the published
// Partial: the new one, or — when no shard consumed a record and the
// engine shed none since the last publish — the last one, with the seq,
// the Profile, OnSnapshot, the journal and the historian left alone.
// The first check always publishes. After Run finishes it returns the
// exact final state.
//
// Publishing does not stop the world: each shard seals its own
// partial at its next between-batches point (sealed-epoch protocol)
// and keeps consuming; only the merge and profile build run here,
// off the hot path.
func (e *Engine) Snapshot() core.Partial {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.running {
		return e.final
	}
	e.lastTick.Store(time.Now().UnixNano())
	msp := e.trcSnap.Start()
	epoch := e.snapEpoch.Add(1)
	for _, sh := range e.shards {
		sh.poke()
	}
	var fed int64
	exited := false
	for _, sh := range e.shards {
		for {
			seq := sh.sealedSeq.Load()
			if seq == sealedForever {
				// The shard exited without sealing for this epoch. Once
				// done is closed its goroutine is gone, so the analyzer
				// is quiescent and can be sealed here.
				<-sh.done
				sh.an.PartialInto(&sh.buf)
				sh.sealedFed = sh.fed.Load()
				exited = true
				break
			}
			if seq >= epoch {
				break
			}
			// The poke above cannot be lost (wake holds it until the
			// shard's next between-batches point), so just wait for the
			// shard to say it sealed — or to exit. A note left over
			// from an earlier epoch costs one more turn of the loop.
			select {
			case <-sh.sealedNote:
			case <-sh.done:
			}
		}
		fed += sh.sealedFed
	}
	_, dropped := e.metrics.dropped()
	if last := e.pub.Load(); last != nil && !exited && fed == last.fed && dropped == last.dropped {
		return last.part
	}
	parts := make([]core.Partial, len(e.shards))
	for i, sh := range e.shards {
		parts[i] = sh.buf
	}
	merged := core.MergePartials(parts)
	e.trcSnap.End(msp, trace.StageMerge, len(parts), -1)
	e.seq++
	e.publish(merged, e.seq, false, fed)
	e.syncHistorian(merged.Last)
	return merged
}

// syncHistorian makes the on-disk history durable up to the samples
// recorded so far — the snapshot-stage fsync point. A failure is
// journaled and returned.
func (e *Engine) syncHistorian(at time.Time) error {
	if e.cfg.Historian == nil {
		return nil
	}
	err := e.cfg.Historian.Sync()
	if err != nil {
		e.cfg.Journal.Log(at, obs.EventHistorianSync, "", map[string]any{"error": err.Error()})
	}
	return err
}

// finishHistorian runs the final sync after the drain and returns the
// first shard recorder's append error joined with the sync's: a shard
// stops recording at its first failed append, so either means history
// was lost.
func (e *Engine) finishHistorian(at time.Time) error {
	if e.cfg.Historian == nil {
		return nil
	}
	var recErr error
	for _, sh := range e.shards {
		if recErr = sh.rec.Err(); recErr != nil {
			break
		}
	}
	return errors.Join(recErr, e.syncHistorian(at))
}

// publish derives and stores the rolling profile of p, which holds fed
// sealed records. Called with e.mu held (or single-threaded at
// shutdown).
func (e *Engine) publish(p core.Partial, seq int, final bool, fed int64) {
	psp := e.trcSnap.Start()
	prof := BuildProfile(p, seq, e.cfg.ClusterK, e.cfg.ClusterSeed)
	prof.Workers = e.cfg.Workers
	prof.DroppedBatches, prof.DroppedPackets = e.metrics.dropped()
	e.pub.Store(&published{prof: prof, part: p, fed: fed, dropped: prof.DroppedPackets})
	e.lastPub.Store(time.Now().UnixNano())
	e.metrics.noteSnapshot()
	e.cfg.Journal.Log(p.Last, obs.EventSnapshot, "", map[string]any{
		"seq":          seq,
		"packets":      p.Packets,
		"iec":          p.IECPackets,
		"flows":        p.Flows.Total(),
		"asdus":        p.TotalASDUs,
		"parse_errors": p.ParseErrors,
	})
	if e.cfg.OnSnapshot != nil {
		e.cfg.OnSnapshot(p, prof, final)
	}
	e.trcSnap.End(psp, trace.StagePublish, 0, -1)
	// Stream the spans recorded since the last snapshot into the
	// journal. The journal's bounded queue sheds overload, so a burst
	// of spans can never stall the snapshot path.
	if e.cfg.Trace != nil && e.cfg.Journal != nil {
		e.cfg.Trace.DrainNew(func(lane string, s trace.Span) {
			e.cfg.Journal.Log(p.Last, obs.EventSpan, "", map[string]any{
				"lane":     lane,
				"stage":    s.Stage.String(),
				"start_us": s.Start.Microseconds(),
				"dur_us":   s.Dur.Microseconds(),
				"items":    s.Items,
				"queue":    s.Queue,
			})
		})
	}
}

// Profile returns the latest published rolling profile, or nil before
// the first snapshot.
func (e *Engine) Profile() *Profile {
	if p := e.pub.Load(); p != nil {
		return p.prof
	}
	return nil
}

// Final returns the exact end-of-stream state; valid after Run
// returns.
func (e *Engine) Final() core.Partial {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.final
}

// Analyzer returns the analyzer that saw the whole run — raw sample
// series, per-point timing, what ids.Train and Baseline.Scan read —
// once Run has returned, like Final. A sharded run has no such
// analyzer (each shard kept its own samples): it returns nil.
func (e *Engine) Analyzer() *core.Analyzer {
	if len(e.shards) != 1 || e.state.Load() != stateDone {
		return nil
	}
	return e.shards[0].an
}

// LastPartial returns the merged analyzer state behind the most
// recently published snapshot, or ok=false before the first one. The
// value is detached from the shards (the merge copies what it reads
// from their seals, which are rewritten in place), so callers may keep
// it and merge it further — the control-room service folds it into
// fleet-wide aggregates — but must not mutate it.
func (e *Engine) LastPartial() (core.Partial, bool) {
	p := e.pub.Load()
	if p == nil {
		return core.Partial{}, false
	}
	return p.part, true
}
