// Package trace is the pipeline's flight recorder: a sampling span
// recorder that threads stage context through the streaming hot path
// — source read, route/slab append, channel enqueue (with the queue
// depth observed at enqueue), worker-side decode, analyzer feed,
// historian append, snapshot merge and publish.
//
// Design constraints, in order:
//
//   - Zero steady-state cost when disabled: with the sample rate at 0
//     a Start call is a single atomic load, and the traced hot path
//     stays allocation-free at any rate (guarded by AllocsPerRun
//     tests).
//   - No locks on the hot path: each lane is a single-producer ring
//     buffer of fixed-size slots. Producers never block; old spans are
//     overwritten. Readers (snapshot, drain, Chrome export) validate
//     each slot with a per-slot sequence number, so a torn read is
//     discarded rather than propagated.
//   - Monotonic time: span timestamps are time.Since a per-recorder
//     epoch, so wall-clock steps cannot fold spans over each other.
//
// Spans fan out three ways on top of the same rings: per-stage latency
// histograms (uncharted_stage_seconds{stage,shard}) fed at End time,
// a rolling JSONL journal stream (obs.EventSpan, via DrainNew), and a
// Chrome trace_event JSON export (WriteChromeTrace) that loads in
// chrome://tracing and Perfetto.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"uncharted/internal/obs"
)

// Stage identifies one hot-path pipeline stage.
type Stage uint8

// The stage vocabulary, in pipeline order.
const (
	// StagePlan: segment planning over a seekable capture before
	// parallel readers start (one span per plan).
	StagePlan Stage = iota
	// StageRead: one record pulled from the source (decoded or raw).
	StageRead
	// StageRoute: header peek, shard choice, and slab append for one
	// raw record.
	StageRoute
	// StageEnqueue: one batch handed to a shard channel.
	StageEnqueue
	// StageDecode: worker-side L2-L4 decode of one raw batch.
	StageDecode
	// StageFeed: analyzer feed of one packet.
	StageFeed
	// StageHistorian: historian append for one frame's measurements.
	StageHistorian
	// StageMerge: snapshot fan-out and partial merge.
	StageMerge
	// StagePublish: rolling-profile build and publication.
	StagePublish

	numStages
)

var stageNames = [numStages]string{
	"plan", "read", "route", "enqueue", "decode", "feed", "historian", "merge", "publish",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageSecondsMetric is the per-stage latency histogram family fed by
// sampled spans: uncharted_stage_seconds{stage,shard}. The shard label
// is the lane name ("reader0".."readerN-1", "0".."N-1", "snapshot").
const StageSecondsMetric = "uncharted_stage_seconds"

// Span is one recorded stage execution.
type Span struct {
	// Start is the span's begin time as an offset from the recorder
	// epoch (monotonic).
	Start time.Duration `json:"start_ns"`
	// Dur is the span's duration.
	Dur time.Duration `json:"dur_ns"`
	// Stage is the pipeline stage.
	Stage Stage `json:"stage"`
	// Items is the payload size (packets or frames), 0 when n/a.
	Items int32 `json:"items"`
	// Queue is the queue depth observed at enqueue, -1 when n/a.
	Queue int32 `json:"queue"`
}

// SpanStart is an in-flight span handle. The zero value means "not
// sampled" and makes the matching End a no-op, so callers start/end
// unconditionally.
type SpanStart struct{ t time.Duration }

// Sampled reports whether this start was actually recorded.
func (s SpanStart) Sampled() bool { return s.t != 0 }

// Config parameterises a Recorder.
type Config struct {
	// SampleEvery records 1 in N span starts per lane; 0 disables
	// recording entirely (a Start call is then one atomic load).
	SampleEvery int
	// RingSize is the per-lane span capacity, rounded up to a power of
	// two (default 4096).
	RingSize int
	// Registry, when set, receives per-stage latency histograms
	// (StageSecondsMetric) fed at span End time.
	Registry *obs.Registry
}

// Recorder owns the lanes. A nil *Recorder is a valid no-op, and so
// are the nil *Lanes it hands out, so instrumented code traces
// unconditionally.
type Recorder struct {
	epoch time.Time
	every atomic.Int64
	ring  int
	reg   *obs.Registry

	mu    sync.Mutex
	lanes []*Lane
}

// New builds a recorder.
func New(cfg Config) *Recorder {
	if cfg.RingSize < 1 {
		cfg.RingSize = 4096
	}
	ring := 1
	for ring < cfg.RingSize {
		ring <<= 1
	}
	r := &Recorder{epoch: time.Now(), ring: ring, reg: cfg.Registry}
	if cfg.SampleEvery > 0 {
		r.every.Store(int64(cfg.SampleEvery))
	}
	if cfg.Registry != nil {
		cfg.Registry.SetHelp(StageSecondsMetric, "Sampled per-stage pipeline latency by shard lane.")
	}
	return r
}

// SetSampleEvery changes the sample rate at runtime (0 disables).
func (r *Recorder) SetSampleEvery(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.every.Store(int64(n))
}

// Lane returns (registering on first use) the named single-producer
// lane. Start/End must stay on one goroutine per lane; every other
// method is safe from anywhere. Nil-safe: a nil recorder returns a nil
// lane, itself a valid no-op.
func (r *Recorder) Lane(name string) *Lane {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lanes {
		if l.name == name {
			return l
		}
	}
	l := &Lane{
		rec:   r,
		name:  name,
		slots: make([]slot, r.ring),
		mask:  uint64(r.ring - 1),
	}
	if r.reg != nil {
		for st := Stage(0); st < numStages; st++ {
			l.hist[st] = r.reg.Histogram(StageSecondsMetric, obs.DurationBuckets,
				"stage", st.String(), "shard", name)
		}
	}
	r.lanes = append(r.lanes, l)
	return l
}

// slot is one ring entry. Every field is atomic so the seqlock
// protocol (odd seq = write in progress; 2h+2 = span h committed)
// stays free of data races: a reader that loses the race observes a
// mismatched sequence and discards the slot.
type slot struct {
	seq   atomic.Uint64
	start atomic.Int64
	dur   atomic.Int64
	si    atomic.Uint64 // high 32 bits: stage; low 32: items
	q     atomic.Int64
}

// Lane is one single-producer span ring plus its pre-resolved
// histogram handles.
type Lane struct {
	rec  *Recorder
	name string

	slots []slot
	mask  uint64
	head  atomic.Uint64 // next span index (monotonic, unmasked)

	n       uint64 // producer-local sample counter
	drained uint64 // DrainNew cursor, guarded by rec.mu

	every atomic.Int64 // per-lane rate override; 0 = recorder default

	hist [numStages]*obs.Histogram
}

// SetSampleEvery overrides the recorder's sampling rate for this lane
// (0 restores the default). Cold lanes — one merge per snapshot, one
// publish per run — set 1 so their rare spans always record; the
// recorder's rate 0 still disables everything.
func (l *Lane) SetSampleEvery(n int) {
	if l == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	l.every.Store(int64(n))
}

// Name returns the lane name.
func (l *Lane) Name() string {
	if l == nil {
		return ""
	}
	return l.name
}

// Start begins a span if this call is sampled. With the rate at 0 the
// cost is a single atomic load; a nil lane costs one branch.
func (l *Lane) Start() SpanStart {
	if l == nil {
		return SpanStart{}
	}
	every := l.rec.every.Load()
	if every == 0 {
		return SpanStart{}
	}
	if o := l.every.Load(); o > 0 {
		every = o
	}
	// Sample the first start of each window, not the last: lanes with
	// few events (one merge per snapshot, one publish per run) must
	// still record their span at any sampling rate.
	l.n++
	if (l.n-1)%uint64(every) != 0 {
		return SpanStart{}
	}
	t := time.Since(l.rec.epoch)
	if t == 0 {
		t = 1 // zero means "not sampled"; never hand it out as a timestamp
	}
	return SpanStart{t: t}
}

// End completes a sampled span: writes it into the ring and feeds the
// stage histogram. A zero SpanStart (unsampled, or from a nil lane)
// makes this a no-op.
func (l *Lane) End(st SpanStart, stage Stage, items, queue int) {
	if st.t == 0 || l == nil {
		return
	}
	dur := time.Since(l.rec.epoch) - st.t
	h := l.head.Load()
	s := &l.slots[h&l.mask]
	s.seq.Store(2*h + 1)
	s.start.Store(int64(st.t))
	s.dur.Store(int64(dur))
	s.si.Store(uint64(stage)<<32 | uint64(uint32(items)))
	s.q.Store(int64(queue))
	s.seq.Store(2*h + 2)
	l.head.Store(h + 1)
	if hs := l.hist[stage]; hs != nil {
		hs.Observe(dur.Seconds())
	}
}

// read copies the validated spans in [from, head) — clamped to the
// ring capacity — and returns them with the head it observed.
func (l *Lane) read(from uint64) ([]Span, uint64) {
	head := l.head.Load()
	lo := from
	if ring := uint64(len(l.slots)); head > ring && lo < head-ring {
		lo = head - ring
	}
	var out []Span
	for h := lo; h < head; h++ {
		s := &l.slots[h&l.mask]
		want := 2*h + 2
		if s.seq.Load() != want {
			continue
		}
		sp := Span{
			Start: time.Duration(s.start.Load()),
			Dur:   time.Duration(s.dur.Load()),
		}
		si := s.si.Load()
		sp.Stage = Stage(si >> 32)
		sp.Items = int32(uint32(si))
		sp.Queue = int32(s.q.Load())
		if s.seq.Load() != want { // overwritten mid-copy: discard
			continue
		}
		out = append(out, sp)
	}
	return out, head
}

// EachStage calls fn with every stage histogram the recorder feeds,
// lane by lane in registration order and stage by stage in pipeline
// order: the uncharted_stage_seconds series of its registry, read
// without walking the registry. A recorder without a registry, or a
// nil one, has none.
func (r *Recorder) EachStage(fn func(lane string, stage Stage, h *obs.Histogram)) {
	if r == nil || r.reg == nil {
		return
	}
	r.mu.Lock()
	lanes := append([]*Lane(nil), r.lanes...)
	r.mu.Unlock()
	for _, l := range lanes {
		for st, h := range l.hist {
			fn(l.name, Stage(st), h)
		}
	}
}

// LaneSpans is one lane's drained spans.
type LaneSpans struct {
	Lane  string `json:"lane"`
	Spans []Span `json:"spans"`
}

// Snapshot copies every validated span currently held in the rings,
// one entry per lane in registration order. Nil-safe.
func (r *Recorder) Snapshot() []LaneSpans {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lanes := append([]*Lane(nil), r.lanes...)
	r.mu.Unlock()
	out := make([]LaneSpans, 0, len(lanes))
	for _, l := range lanes {
		spans, _ := l.read(0)
		out = append(out, LaneSpans{Lane: l.name, Spans: spans})
	}
	return out
}

// DrainNew invokes fn for every span recorded since the previous
// drain (journal streaming). Spans overwritten before the drain
// reached them are silently skipped — the rings never block the
// producers. Nil-safe.
func (r *Recorder) DrainNew(fn func(lane string, s Span)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lanes {
		spans, head := l.read(l.drained)
		l.drained = head
		for _, s := range spans {
			fn(l.name, s)
		}
	}
}
