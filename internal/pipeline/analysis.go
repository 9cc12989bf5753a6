package pipeline

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

func init() {
	Register(Spec{
		Kind: "analyzer",
		Role: RoleAnalysis,
		In:   PortPackets,
		Out:  PortProfiles,
		Doc:  "the sharded core analyzer: consumes packets — or runs the source of an input wired to it alone — publishes rolling profiles (a snapshot event each in the journal) and, with an IDS armed, one alert per violation, serves /{id}/profile, /{id}/statusz, /{id}/readyz (+/drift, /query when armed; /query outlives the feed, until the host stops)",
		Params: []ParamSpec{
			{Name: "workers", Type: ParamInt, Default: 1, Doc: "analysis shards"},
			{Name: "readers", Type: ParamInt, Default: 0, Doc: "parallel capture readers for a handed-off source (0 = match workers; a single pcap file wired straight into this analyzer is handed off and split across them)"},
			{Name: "snapshot", Type: ParamDuration, Default: time.Duration(0), Doc: "rolling-profile period (0 = final profile only)"},
			{Name: "cluster_k", Type: ParamInt, Default: 5, Doc: "session clustering K (0 = off)"},
			{Name: "cluster_seed", Type: ParamInt, Default: core.ClusterSeed, Doc: "session clustering seed"},
			{Name: "idle_timeout", Type: ParamDuration, Default: time.Duration(0), Doc: "evict flows idle this long (0 = never)"},
			{Name: "point_cap", Type: ParamInt, Default: 0, Doc: "cap in-memory samples per series (0 = unbounded)"},
			{Name: "names", Type: ParamBool, Default: true, Doc: "label addresses with the simulated topology's names (C1, O30, ...)"},
			{Name: "protocol", Type: ParamString, Default: "", Doc: "extra dialects to decode, comma-separated (c37118, modbus), or \"auto\" to content-detect every registered dialect"},
			{Name: "historian", Type: ParamString, Default: "", Doc: "record every IEC 104 measurement into the durable historian at this directory (adds /{id}/query)"},
			{Name: "baseline", Type: ParamString, Default: "", Doc: "stored drift profile: arms live drift detection (adds /{id}/drift)"},
			{Name: "ids_baseline", Type: ParamString, Default: "", Doc: "stored IDS baseline: arms the online detector, one monitor per shard raising each alert once"},
			{Name: "ids_train_year", Type: ParamInt, Default: 0, Doc: "arm the online detector with a whitelist trained on a clean simulation of this campaign (1 or 2) instead"},
			{Name: "ids_train_seed", Type: ParamInt, Default: 1, Doc: "training simulation seed"},
			{Name: "ids_train_duration", Type: ParamDuration, Default: 2 * time.Minute, Doc: "training simulation length"},
		},
		Build: buildAnalyzer,
	})
}

// chanSource adapts a packets edge to the engine's Source contract:
// Next pops packets off the incoming batches and reports io.EOF once
// the edge closes. Blocking in Next is fine — the runtime's close
// cascade is the engine's end-of-stream signal.
type chanSource struct {
	in  <-chan Msg
	cur []pcap.Packet
	i   int
	// cut: the edge said its input ended short (Msg.Cut).
	cut bool
}

func (s *chanSource) Next() (pcap.Packet, error) {
	for {
		if s.i < len(s.cur) {
			p := s.cur[s.i]
			s.i++
			return p, nil
		}
		m, ok := <-s.in
		if !ok {
			return pcap.Packet{}, io.EOF
		}
		s.cur, s.i, s.cut = m.Pkts, 0, s.cut || m.Cut
	}
}

func (s *chanSource) Close() error { return nil }

// AnalyzerSegment wraps the streaming engine: every front end's
// analysis, and its online detection, is this one sharded analyzer.
type AnalyzerSegment struct {
	env   *Env
	id    string
	eng   *stream.Engine
	hist  *historian.Store
	drift *driftWatch // nil unless the baseline param armed it
	emit  Emit        // Run's, for alerts

	fwd        chan *Snapshot
	fwdDropped *obs.Counter
	whole      bool // set by Run
}

// buildAnalyzer builds the segment; its Options.Hooks payload is the
// flight recorder (*trace.Recorder) to attach.
func buildAnalyzer(bc BuildCtx) (Segment, error) {
	rec, _ := bc.Hook.(*trace.Recorder)
	s := &AnalyzerSegment{
		env:        bc.Env,
		id:         bc.ID,
		fwd:        make(chan *Snapshot, 8),
		fwdDropped: bc.Env.Registry.With("segment", bc.ID).Counter("uncharted_pipeline_snapshot_drops_total"),
	}

	if path := bc.Params.Str("baseline"); path != "" {
		w, err := newDriftWatch(bc, path)
		if err != nil {
			return nil, err
		}
		s.drift = w
	}
	var observer func(shard int) core.FrameObserver
	base, err := idsBaseline(bc.Params)
	if err != nil {
		return nil, err
	}
	if base != nil {
		eps, conns, points := base.Size()
		bc.Env.Logf("segment %s: online detector armed: %d endpoints, %d connections, %d physical points whitelisted",
			bc.ID, eps, conns, points)
		observer = ids.NewMonitorSet(base, s.alert)
	}
	protos, err := stream.ParseProtocols(bc.Params.Str("protocol"))
	if err != nil {
		return nil, err
	}
	if dir := bc.Params.Str("historian"); dir != "" {
		st, err := historian.Open(dir, historian.Options{Registry: bc.Env.Registry.With("segment", bc.ID)})
		if err != nil {
			return nil, err
		}
		s.hist = st
	}

	var names map[netip.Addr]string
	if bc.Params.Bool("names") {
		names = core.NamesFromTopology(topology.Build())
	}
	readers := bc.Params.Int("readers")
	if readers <= 0 {
		readers = bc.Params.Int("workers")
	}
	s.eng = stream.New(stream.Config{
		Workers:         bc.Params.Int("workers"),
		Readers:         readers,
		SnapshotEvery:   bc.Params.Dur("snapshot"),
		IdleTimeout:     bc.Params.Dur("idle_timeout"),
		ClusterK:        bc.Params.Int("cluster_k"),
		ClusterSeed:     int64(bc.Params.Int("cluster_seed")),
		Names:           names,
		Protocols:       protos,
		Registry:        bc.Env.Registry.With("segment", bc.ID),
		Journal:         bc.Env.Journal,
		Trace:           rec,
		Observer:        observer,
		Historian:       s.hist,
		MaxPointSamples: bc.Params.Int("point_cap"),
		// Compare every published snapshot against the baseline — the
		// final one too: a finished capture's report comes only from
		// it — and forward the intermediate ones down the profiles edge.
		// Called with the engine lock held, so hand off without blocking;
		// a full buffer drops the stale intermediate (the final state is
		// emitted separately after the drain, losslessly).
		OnSnapshot: func(p core.Partial, prof *stream.Profile, final bool) {
			if s.drift != nil {
				s.drift.check(p, prof.Seq)
			}
			if final {
				return
			}
			select {
			case s.fwd <- &Snapshot{Seq: prof.Seq, Partial: p, Profile: prof}:
			default:
				s.fwdDropped.Inc()
			}
		},
	})
	for path, h := range s.Endpoints() {
		bc.Env.Handle("/"+bc.ID+path, h)
	}
	return s, nil
}

// idsBaseline loads or trains the whitelist the ids_* params name; nil
// when they arm no detector.
func idsBaseline(p Params) (*ids.Baseline, error) {
	path, year := p.Str("ids_baseline"), p.Int("ids_train_year")
	switch {
	case path != "" && year > 0:
		return nil, fmt.Errorf("ids_baseline and ids_train_year both arm the detector; set one")
	case path != "":
		return drift.LoadBaseline(path)
	case year > 0:
		return TrainBaseline(campaign(year), int64(p.Int("ids_train_seed")), p.Dur("ids_train_duration"))
	}
	return nil, nil
}

// alert is the online detector's sink, called once per alert from the
// shard that fired it (Logf, the journal and emit are safe for
// concurrent use): it logs the alert beside the DRIFT lines, journals it
// and emits it, losslessly, on the output edge.
func (s *AnalyzerSegment) alert(al ids.Alert) {
	s.env.Logf("ALERT [%s] %v", s.id, al)
	s.env.Journal.Log(time.Now(), obs.EventAlert, al.Subject, map[string]any{
		"segment": s.id, "kind": string(al.Kind),
		"severity": al.Severity, "detail": al.Detail,
	})
	s.emit(Msg{Alert: &al})
}

// Engine exposes the wrapped engine (presets print its final profile).
func (s *AnalyzerSegment) Engine() *stream.Engine { return s.eng }

// Endpoints is the segment's query surface — the engine's /profile,
// /statusz and /readyz, plus /drift and /query when armed — as a fresh
// path → handler map: mounted under /{id} in the pipeline, at the root
// by a single-analyzer host and under /v1/{tenant} by the control-room
// service.
func (s *AnalyzerSegment) Endpoints() map[string]http.Handler {
	eps := stream.Endpoints(s.eng)
	if s.drift != nil {
		eps["/drift"] = s.drift.handler()
	}
	if s.hist != nil {
		eps["/query"] = historian.QueryHandler(s.hist)
	}
	return eps
}

// DriftReport returns the latest comparison against the baseline param,
// or nil when none is armed or nothing has been published yet. After
// the drain it is the final state's.
func (s *AnalyzerSegment) DriftReport() *drift.DriftReport { return s.drift.report() }

// Drift is DriftReport together with the seq of the snapshot it
// compared — the version the control-room service caches /drift under:
// the engine stores a snapshot's profile before the watch stores its
// report, so the profile's seq can be one ahead of what /drift serves.
func (s *AnalyzerSegment) Drift() (*drift.DriftReport, int) { return s.drift.latest() }

// SourcePackets implements sourceTaker: the packets the engine has
// dispatched to its shards.
func (s *AnalyzerSegment) SourcePackets() int64 { return s.eng.Status().Packets }

// Close closes the historian. It stays open when the feed ends — the
// engine synced it on its final publish, and a finished capture keeps
// answering /query from it — until the host stops (Runner.Close).
func (s *AnalyzerSegment) Close() error {
	if s.hist == nil {
		return nil
	}
	return s.hist.Close()
}

// Run implements Segment: snapshots forwarded by the OnSnapshot hook
// and alerts ride the profiles edge, and the exact final state follows
// the drain of a whole run (Whole); any other emits no final snapshot.
// An inline edge is consumed via a chanSource, whose end-of-stream is
// the runtime's close cascade. When the first message carries a source
// handoff instead of packets, the engine runs straight over that source
// under the runner's context: cancellation is the drain.
func (s *AnalyzerSegment) Run(ctx context.Context, in <-chan Msg, emit Emit) error {
	s.emit = emit
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sn := range s.fwd {
			emit(Msg{Snap: sn})
		}
	}()
	var err error
	cut := false
	if first, ok := <-in; ok && first.Src != nil {
		err = s.eng.Run(ctx, first.Src)
		// Canceled mid-read and nothing else wrong: a drain, not a
		// failure. A historian error comes joined with the
		// cancellation, so it is not dropped here.
		if err != nil && err == ctx.Err() {
			err, cut = nil, !tail(first.Src)
		}
		if cerr := first.Src.Close(); cerr != nil && err == nil {
			err = cerr
		}
		err = nameFile(first.Src, err)
	} else {
		src := &chanSource{in: in, cur: first.Pkts, cut: first.Cut}
		err = s.eng.Run(context.Background(), src)
		cut = src.cut
	}
	s.whole = err == nil && !cut
	close(s.fwd)
	wg.Wait()
	if prof := s.eng.Profile(); prof != nil && s.whole {
		emit(Msg{Snap: &Snapshot{Seq: prof.Seq, Partial: s.eng.Final(), Profile: prof, Final: true}})
	}
	return err
}

// Whole reports, once Run has returned, whether the run read its whole
// input: to its end, or a tail up to the drain that ended it. Only a
// whole run's state stands for its input; a failed one, or a drain
// that cut a finite input short, saw part of it.
func (s *AnalyzerSegment) Whole() bool { return s.whole }

// campaign maps a year param (1 or 2) to its capture campaign.
func campaign(y int) topology.Year {
	if y == 2 {
		return topology.Y2
	}
	return topology.Y1
}

// TrainBaseline builds a detector whitelist from a clean simulation of
// the given grid and length (like training on yesterday's capture).
// The long cycle period keeps general interrogations from
// legitimising attacker recon tokens.
func TrainBaseline(y topology.Year, seed int64, d time.Duration) (*ids.Baseline, error) {
	cfg := scadasim.DefaultConfig(y, seed)
	cfg.Duration = d
	cfg.CyclePeriod = 100 * time.Minute
	sim, err := scadasim.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Run()
	if err != nil {
		return nil, err
	}
	a := core.NewAnalyzer(core.NamesFromTopology(sim.Network()))
	src := stream.NewRecordSource(tr.Records, 0)
	for {
		pkt, err := src.Next()
		if err != nil {
			break
		}
		a.Feed(&pkt)
	}
	return ids.Train(a)
}

// Drift metric names, booked on the registry of the analyzer that armed
// a baseline.
const (
	metricDriftFindings = "uncharted_stream_drift_findings"
	metricDriftSeverity = "uncharted_stream_drift_max_severity"
	metricDriftCompares = "uncharted_stream_drift_compares_total"
)

// driftWatch is live drift detection, the paper's §6 two-era comparison
// run on every snapshot: the analyzer's baseline param runs it from the
// engine's snapshot hook. Each check compares the snapshot against the
// stored baseline, books the metrics, journals the comparison and every
// finding not seen before in this run, and logs the latter as DRIFT
// lines.
type driftWatch struct {
	env  *Env
	id   string
	base *drift.Profile
	seen map[string]bool // kind|subject of every finding journalled

	last     atomic.Pointer[driftState]
	compares *obs.Counter
	findings *obs.Gauge
	severity *obs.Gauge
}

// driftState is one comparison and the seq of the snapshot it compared.
type driftState struct {
	seq int
	rep *drift.DriftReport
}

func newDriftWatch(bc BuildCtx, path string) (*driftWatch, error) {
	base, err := drift.LoadProfile(path)
	if err != nil {
		return nil, err
	}
	reg := bc.Env.Registry.With("segment", bc.ID)
	reg.SetHelp(metricDriftFindings, "Findings in the latest baseline comparison.")
	reg.SetHelp(metricDriftSeverity, "Maximum severity in the latest baseline comparison.")
	reg.SetHelp(metricDriftCompares, "Baseline comparisons performed.")
	return &driftWatch{
		env:      bc.Env,
		id:       bc.ID,
		base:     base,
		seen:     make(map[string]bool),
		compares: reg.Counter(metricDriftCompares),
		findings: reg.Gauge(metricDriftFindings),
		severity: reg.Gauge(metricDriftSeverity),
	}, nil
}

// check compares snapshot seq against the baseline. Calls must not
// overlap.
func (w *driftWatch) check(p core.Partial, seq int) {
	rep := drift.Compare(w.base, drift.NewProfile("live", "pipeline:"+w.env.Pipeline, p, p.Last), drift.DefaultThresholds())
	w.last.Store(&driftState{seq: seq, rep: rep})
	w.compares.Inc()
	w.findings.Set(float64(len(rep.Findings)))
	w.severity.Set(float64(rep.MaxSeverity()))

	var fresh []drift.Finding
	for _, f := range rep.Findings {
		if key := f.Kind + "|" + f.Subject; !w.seen[key] {
			w.seen[key] = true
			fresh = append(fresh, f)
		}
	}
	w.env.Journal.Log(p.Last, obs.EventDrift, "", map[string]any{
		"segment":      w.id,
		"seq":          seq,
		"baseline":     w.base.Meta.Label,
		"findings":     len(rep.Findings),
		"new":          len(fresh),
		"max_severity": rep.MaxSeverity(),
		"max_jsd":      rep.MaxTransitionJSD,
	})
	for _, f := range fresh {
		w.env.Journal.Log(p.Last, obs.EventDrift, f.Subject, map[string]any{
			"segment":  w.id,
			"kind":     f.Kind,
			"severity": f.Severity,
			"detail":   f.Detail,
			"score":    f.Score,
		})
		w.env.Logf("DRIFT [%s] %v", w.id, f.Alert())
	}
}

// latest returns the most recent comparison and its snapshot's seq;
// nil and 0 before the first, or on a nil watch.
func (w *driftWatch) latest() (*drift.DriftReport, int) {
	if w == nil {
		return nil, 0
	}
	if st := w.last.Load(); st != nil {
		return st.rep, st.seq
	}
	return nil, 0
}

// report is latest without the seq.
func (w *driftWatch) report() *drift.DriftReport {
	rep, _ := w.latest()
	return rep
}

// handler serves the latest report as JSON (default) or the
// profilediff text rendering with ?format=text; 503 before the first
// comparison.
func (w *driftWatch) handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		format, ok := obs.PickFormat(rw, req, "json", "text")
		if !ok {
			return
		}
		rep := w.report()
		if rep == nil {
			http.Error(rw, "no drift report published yet", http.StatusServiceUnavailable)
			return
		}
		if format == "text" {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteText(rw)
			return
		}
		rw.Header().Set("Content-Type", "application/json; charset=utf-8")
		rep.WriteJSON(rw)
	})
}
