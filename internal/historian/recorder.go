package historian

import (
	"uncharted/internal/core"
	"uncharted/internal/obs/trace"
	"uncharted/internal/protocol"
)

// Recorder bridges the analysis pipeline to the historian: it
// implements core.FrameObserver and records every IEC 104 measurement,
// appending each accepted frame's points — the ones the analyzer's
// physical store receives, extracted once by the IEC 104 codec —
// under one store lock, through the station's write handle. So the
// durable history and the in-memory IEC 104 series are
// sample-for-sample identical, the property that makes
// historian-backed event detection reproduce live results exactly.
// Frames of other dialects (C37.118, Modbus) carry points too but are
// not recorded: the historian is the long-horizon IEC 104 record the
// paper's physical findings rest on, and the benchmark's live check
// (benchmark/run.go) fails a run whose history holds anything but the
// analyzers' IEC 104 samples, so recording them waits for a revision
// of that check. A point stamped outside 1678-2262 (a zero capture
// time, a pcapng timestamp past 2262) cannot be stored: it is skipped
// and counted in MetricDropped, and recording goes on.
type Recorder struct {
	store *Store
	// lane is the optional flight-recorder lane StageHistorian spans
	// land on; nil costs one branch per frame.
	lane *trace.Lane
	// err keeps the first append failure so a disk problem is not
	// silently swallowed on the hot path.
	err error
}

// NewRecorder returns a FrameObserver writing into store.
func NewRecorder(store *Store) *Recorder { return &Recorder{store: store} }

// SetTraceLane attaches a flight-recorder lane; ObserveFrame then
// records one sampled StageHistorian span per value-bearing frame.
// The lane must belong to the goroutine that feeds this recorder.
func (r *Recorder) SetTraceLane(l *trace.Lane) { r.lane = l }

// ObserveFrame implements core.FrameObserver.
func (r *Recorder) ObserveFrame(ev core.FrameEvent) {
	if ev.Proto != protocol.IEC104 || len(ev.Points) == 0 || r.err != nil {
		return
	}
	sp := r.lane.Start()
	// Mirrors the analyzer's FeedPoints call: the points belong to the
	// outstation.
	n, err := r.store.appendPoints(ev.Outstation, ev.Proto, ev.Points, ev.Time)
	if err != nil {
		r.err = err
	}
	r.lane.End(sp, trace.StageHistorian, n, -1)
}

// Err returns the first write error encountered, if any.
func (r *Recorder) Err() error { return r.err }
