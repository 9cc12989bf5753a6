package historian

import (
	"uncharted/internal/core"
	"uncharted/internal/obs/trace"
)

// Recorder bridges the analysis pipeline to the historian: it
// implements core.FrameObserver and records every IEC 104 measurement,
// appending every value-bearing information object of each accepted
// I-format APDU — a frame's samples under one store lock, through the
// station's write handle. Frames of other dialects (C37.118, Modbus)
// carry no ASDU and are not recorded. It extracts samples with
// physical.EachValue under the same station/command resolution as
// physical.Store.Feed, so the durable history and the in-memory IEC 104
// series are sample-for-sample identical — the property that makes
// historian-backed event detection reproduce live results exactly. An
// object stamped outside 1678-2262 (a zero capture time, a pcapng
// timestamp past 2262) cannot be stored: it is skipped and counted in
// MetricDropped, and recording goes on.
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
	if ev.ASDU == nil || r.err != nil {
		return
	}
	sp := r.lane.Start()
	// Mirrors the analyzer's Feed call: the point belongs to the
	// outstation; server-to-outstation I-frames are commands.
	n, err := r.store.appendASDU(ev.Outstation, ev.ASDU, ev.Time, !ev.FromOutstation)
	if err != nil {
		r.err = err
	}
	r.lane.End(sp, trace.StageHistorian, n, -1)
}

// Err returns the first write error encountered, if any.
func (r *Recorder) Err() error { return r.err }
