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
		Doc:  "the sharded core analyzer: consumes packets — or runs the source of an input wired to it alone — publishes rolling profiles, serves /{id}/profile, /{id}/statusz, /{id}/readyz (+/drift, /query when armed; /query outlives the feed, until the host stops)",
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
			{Name: "ids_baseline", Type: ParamString, Default: "", Doc: "stored IDS baseline: arms one online monitor per shard"},
		},
		Build: buildAnalyzer,
	})
	Register(Spec{
		Kind: "ids",
		Role: RoleAnalysis,
		In:   PortPackets,
		Out:  PortAlerts,
		Doc:  "online intrusion detector: feeds packets through a whitelist monitor and emits one alert per violation",
		Params: []ParamSpec{
			{Name: "baseline", Type: ParamString, Default: "", Doc: "stored IDS baseline to load (alternative to train_*)"},
			{Name: "train_year", Type: ParamInt, Default: 0, Doc: "train the whitelist from a clean simulation of this campaign (1 or 2)"},
			{Name: "train_seed", Type: ParamInt, Default: 1, Doc: "training simulation seed"},
			{Name: "train_duration", Type: ParamDuration, Default: 2 * time.Minute, Doc: "training simulation length"},
		},
		Build: buildIDS,
	})
	Register(Spec{
		Kind: "drift",
		Role: RoleAnalysis,
		In:   PortProfiles,
		Out:  PortAlerts,
		Doc:  "two-era drift comparator: compares every snapshot against a stored baseline profile, serves /{id}/drift, emits one alert per new finding",
		Params: []ParamSpec{
			{Name: "baseline", Type: ParamString, Required: true, Doc: "stored drift profile to compare against"},
		},
		Build: buildDrift,
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
		s.cur, s.i = m.Pkts, 0
	}
}

func (s *chanSource) Close() error { return nil }

// AnalyzerSegment wraps the streaming engine: every front end's
// analysis is this one sharded analyzer.
type AnalyzerSegment struct {
	env   *Env
	id    string
	eng   *stream.Engine
	hist  *historian.Store
	drift *driftWatch // nil unless the baseline param armed it

	fwd        chan *Snapshot
	fwdDropped *obs.Counter
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
	if path := bc.Params.Str("ids_baseline"); path != "" {
		base, err := drift.LoadBaseline(path)
		if err != nil {
			return nil, err
		}
		observer = func(shard int) core.FrameObserver {
			return ids.NewMonitor(base, alertLogger(bc.Env, bc.ID, shard))
		}
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

// alertLogger is the built-in sink for ids_baseline monitors: journal,
// log, done. Monitors are per shard but share it; it serialises itself.
func alertLogger(env *Env, id string, shard int) func(ids.Alert) {
	var mu sync.Mutex
	return func(al ids.Alert) {
		mu.Lock()
		defer mu.Unlock()
		env.Logf("ALERT [%s shard %d] %v", id, shard, al)
		env.Journal.Log(time.Now(), obs.EventAlert, al.Subject, map[string]any{
			"segment": id, "shard": shard, "kind": string(al.Kind),
			"severity": al.Severity, "detail": al.Detail,
		})
	}
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
// ride the profiles edge, and the exact final state follows the drain.
// An inline edge is consumed via a chanSource, whose end-of-stream is
// the runtime's close cascade. When the first message carries a source
// handoff instead of packets, the engine runs straight over that
// source under the runner's context: cancellation is the drain, and
// the final profile still publishes.
func (s *AnalyzerSegment) Run(ctx context.Context, in <-chan Msg, emit Emit) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sn := range s.fwd {
			emit(Msg{Snap: sn})
		}
	}()
	var err error
	if first, ok := <-in; ok && first.Src != nil {
		err = s.eng.Run(ctx, first.Src)
		// Canceled mid-read and nothing else wrong: a drain, not a
		// failure. A historian error comes joined with the
		// cancellation, so it is not dropped here.
		if err == ctx.Err() {
			err = nil
		}
		if cerr := first.Src.Close(); cerr != nil && err == nil {
			err = cerr
		}
	} else {
		err = s.eng.Run(context.Background(), &chanSource{in: in, cur: first.Pkts})
	}
	close(s.fwd)
	wg.Wait()
	if prof := s.eng.Profile(); prof != nil {
		emit(Msg{Snap: &Snapshot{Seq: prof.Seq, Final: true, Partial: s.eng.Final(), Profile: prof}})
	}
	return err
}

// IDSSegment feeds packets through a single whitelist monitor and
// emits alerts.
type IDSSegment struct {
	env  *Env
	id   string
	base *ids.Baseline
	// onAlert is the optional hook sink (func(ids.Alert)).
	onAlert func(ids.Alert)
	alerts  atomic.Int64
}

func buildIDS(bc BuildCtx) (Segment, error) {
	s := &IDSSegment{env: bc.Env, id: bc.ID}
	s.onAlert, _ = bc.Hook.(func(ids.Alert))
	switch {
	case bc.Params.Str("baseline") != "":
		base, err := drift.LoadBaseline(bc.Params.Str("baseline"))
		if err != nil {
			return nil, err
		}
		s.base = base
	case bc.Params.Int("train_year") > 0:
		base, err := TrainBaseline(campaign(bc.Params.Int("train_year")),
			int64(bc.Params.Int("train_seed")), bc.Params.Dur("train_duration"))
		if err != nil {
			return nil, err
		}
		s.base = base
	default:
		return nil, fmt.Errorf("need baseline or train_year")
	}
	eps, conns, points := s.base.Size()
	bc.Env.Logf("segment %s: online detector armed: %d endpoints, %d connections, %d physical points whitelisted",
		bc.ID, eps, conns, points)
	return s, nil
}

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
		a.FeedPacket(pkt)
	}
	return ids.Train(a)
}

// Alerts returns how many alerts the monitor has raised.
func (s *IDSSegment) Alerts() int64 { return s.alerts.Load() }

// Run implements Segment. The monitor's sink runs synchronously on
// this goroutine (FeedPacket calls it inline), so no locking is
// needed around emit.
func (s *IDSSegment) Run(_ context.Context, in <-chan Msg, emit Emit) error {
	an := core.NewAnalyzer(core.NamesFromTopology(topology.Build()))
	// The sink journals and emits but does not log: rendering alerts is
	// the downstream log/webhook segments' job.
	mon := ids.NewMonitor(s.base, func(al ids.Alert) {
		s.alerts.Add(1)
		s.env.Journal.Log(time.Now(), obs.EventAlert, al.Subject, map[string]any{
			"segment": s.id, "kind": string(al.Kind),
			"severity": al.Severity, "detail": al.Detail,
		})
		if s.onAlert != nil {
			s.onAlert(al)
		}
		a := al
		emit(Msg{Alert: &a})
	})
	an.SetFrameObserver(mon)
	for m := range in {
		for i := range m.Pkts {
			an.FeedPacket(m.Pkts[i])
		}
	}
	return nil
}

// Drift metric names, booked on the registry of the segment that armed
// a baseline.
const (
	metricDriftFindings = "uncharted_stream_drift_findings"
	metricDriftSeverity = "uncharted_stream_drift_max_severity"
	metricDriftCompares = "uncharted_stream_drift_compares_total"
)

// driftWatch is live drift detection, the paper's §6 two-era comparison
// run on every snapshot: the analyzer's baseline param runs it from the
// engine's snapshot hook, the drift segment over its profiles edge.
// Each check compares the snapshot against the stored baseline, books
// the metrics, journals the comparison and every finding not seen
// before in this run, and logs the latter as DRIFT lines.
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

// check compares snapshot seq against the baseline and returns the
// findings it reports for the first time. Calls must not overlap.
func (w *driftWatch) check(p core.Partial, seq int) []drift.Finding {
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
	return fresh
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

// DriftSegment runs a drift watch over the snapshots of its profiles
// edge, serves /{id}/drift and emits one alert per new finding.
type DriftSegment struct {
	watch *driftWatch
}

func buildDrift(bc BuildCtx) (Segment, error) {
	w, err := newDriftWatch(bc, bc.Params.Str("baseline"))
	if err != nil {
		return nil, err
	}
	bc.Env.Handle("/"+bc.ID+"/drift", w.handler())
	return &DriftSegment{watch: w}, nil
}

// Run implements Segment.
func (s *DriftSegment) Run(_ context.Context, in <-chan Msg, emit Emit) error {
	for m := range in {
		if sn := m.Snap; sn != nil {
			for _, f := range s.watch.check(sn.Partial, sn.Seq) {
				al := f.Alert()
				emit(Msg{Alert: &al})
			}
		}
	}
	return nil
}
