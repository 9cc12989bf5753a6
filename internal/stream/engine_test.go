package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// simulate synthesizes a deterministic Y1 trace.
func simulate(t testing.TB, seed int64, dur time.Duration) (*scadasim.Simulator, *scadasim.Trace) {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = dur
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sim, tr
}

func tracePCAP(t testing.TB, tr *scadasim.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// offlinePartial runs the classic single-analyzer pipeline.
func offlinePartial(t testing.TB, sim *scadasim.Simulator, capture []byte) core.Partial {
	t.Helper()
	a := core.NewAnalyzer(core.NamesFromTopology(sim.Network()))
	if err := a.ReadPCAP(bytes.NewReader(capture)); err != nil {
		t.Fatal(err)
	}
	return a.Partial()
}

// runEngine streams the capture through an engine and returns its
// final state.
func runEngine(t testing.TB, sim *scadasim.Simulator, capture []byte, workers int) (*Engine, core.Partial) {
	t.Helper()
	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: workers, Names: core.NamesFromTopology(sim.Network())})
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	return e, e.Final()
}

// assertEquivalent compares the aggregates that must be exactly equal
// between the offline pipeline and a sharded streamed run. Detected
// dialects are compared only as the non-compliant set: an endpoint
// whose traffic spans shards detects its dialect per shard, so the
// pinning moment (and with it StrictInvalid tallies) can differ even
// though the verdict does not.
func assertEquivalent(t *testing.T, want, got core.Partial) {
	t.Helper()
	if got.Packets != want.Packets || got.IECPackets != want.IECPackets {
		t.Errorf("packets %d/%d, want %d/%d", got.Packets, got.IECPackets, want.Packets, want.IECPackets)
	}
	if got.TotalASDUs != want.TotalASDUs {
		t.Errorf("ASDUs %d, want %d", got.TotalASDUs, want.TotalASDUs)
	}
	if !got.First.Equal(want.First) || !got.Last.Equal(want.Last) {
		t.Errorf("window [%v %v], want [%v %v]", got.First, got.Last, want.First, want.Last)
	}
	wf, gf := want.Flows, got.Flows
	if gf.ShortLived != wf.ShortLived || gf.LongLived != wf.LongLived ||
		gf.ShortLivedSubSec != wf.ShortLivedSubSec || gf.ShortLivedOverSec != wf.ShortLivedOverSec {
		t.Errorf("flow summary %+v, want %+v", gf, wf)
	}
	if len(gf.ShortLivedDuration) != len(wf.ShortLivedDuration) {
		t.Errorf("%d short-lived durations, want %d", len(gf.ShortLivedDuration), len(wf.ShortLivedDuration))
	}
	if !reflect.DeepEqual(got.TypeCounts, want.TypeCounts) {
		t.Errorf("type counts %v, want %v", got.TypeCounts, want.TypeCounts)
	}

	wc, gc := want.ComplianceReport(), got.ComplianceReport()
	if !reflect.DeepEqual(gc.NonCompliant, wc.NonCompliant) {
		t.Errorf("non-compliant %v, want %v", gc.NonCompliant, wc.NonCompliant)
	}
	wantFrames := map[string]int{}
	for _, sc := range wc.Stations {
		wantFrames[sc.Name] = sc.Frames
	}
	gotFrames := map[string]int{}
	for _, sc := range gc.Stations {
		gotFrames[sc.Name] = sc.Frames
	}
	if !reflect.DeepEqual(gotFrames, wantFrames) {
		t.Errorf("per-station frames %v, want %v", gotFrames, wantFrames)
	}

	wm, gm := want.MarkovReport(), got.MarkovReport()
	sortStrs := func(ss []string) []string { out := append([]string(nil), ss...); sort.Strings(out); return out }
	if !reflect.DeepEqual(sortStrs(gm.Point11), sortStrs(wm.Point11)) ||
		!reflect.DeepEqual(sortStrs(gm.Square), sortStrs(wm.Square)) ||
		!reflect.DeepEqual(sortStrs(gm.Ellipse), sortStrs(wm.Ellipse)) {
		t.Errorf("Fig.13 membership differs: got (%v,%v,%v) want (%v,%v,%v)",
			gm.Point11, gm.Square, gm.Ellipse, wm.Point11, wm.Square, wm.Ellipse)
	}
	if gm.Distribution != wm.Distribution {
		t.Errorf("class distribution %v, want %v", gm.Distribution, wm.Distribution)
	}
	wantChains := map[string][3]int{}
	for _, cc := range wm.Chains {
		wantChains[cc.Server+"-"+cc.Outstation] = [3]int{cc.Chain.Nodes(), cc.Chain.Edges(), cc.Chain.TotalTokens()}
	}
	for _, cc := range gm.Chains {
		if got, want := [3]int{cc.Chain.Nodes(), cc.Chain.Edges(), cc.Chain.TotalTokens()},
			wantChains[cc.Server+"-"+cc.Outstation]; got != want {
			t.Errorf("chain %s-%s shape %v, want %v", cc.Server, cc.Outstation, got, want)
		}
	}
	if len(gm.Chains) != len(wm.Chains) {
		t.Errorf("%d chains, want %d", len(gm.Chains), len(wm.Chains))
	}

	// Session features are sorted in partials; the offline analyzer
	// emits them in session order — compare as sorted multisets.
	wantFeats := append([]core.SessionFeature(nil), want.Features...)
	gotFeats := append([]core.SessionFeature(nil), got.Features...)
	less := func(a, b core.SessionFeature) bool {
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	}
	sort.Slice(wantFeats, func(i, j int) bool { return less(wantFeats[i], wantFeats[j]) })
	sort.Slice(gotFeats, func(i, j int) bool { return less(gotFeats[i], gotFeats[j]) })
	if !reflect.DeepEqual(gotFeats, wantFeats) {
		t.Errorf("session features differ (%d vs %d rows)", len(gotFeats), len(wantFeats))
	}

	if len(got.Physical) != len(want.Physical) {
		t.Fatalf("%d physical digests, want %d", len(got.Physical), len(want.Physical))
	}
	for i, gd := range got.Physical {
		wd := want.Physical[i]
		if gd.Key != wd.Key || gd.Count != wd.Count || gd.Min != wd.Min || gd.Max != wd.Max {
			t.Errorf("digest %v: got {n=%d min=%g max=%g}, want key %v {n=%d min=%g max=%g}",
				gd.Key, gd.Count, gd.Min, gd.Max, wd.Key, wd.Count, wd.Min, wd.Max)
			continue
		}
		// Means/variances merge in a different association order, so
		// allow float rounding.
		if !closeEnough(gd.Mean, wd.Mean) || !closeEnough(gd.NormalizedVariance(), wd.NormalizedVariance()) {
			t.Errorf("digest %v moments: mean %g/%g nvar %g/%g",
				gd.Key, gd.Mean, wd.Mean, gd.NormalizedVariance(), wd.NormalizedVariance())
		}
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if ab := abs(a); ab > scale {
		scale = ab
	}
	return d <= 1e-9*scale
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestStreamedMatchesOffline(t *testing.T) {
	sim, tr := simulate(t, 11, 3*time.Minute)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)
	if want.Packets == 0 || want.TotalASDUs == 0 {
		t.Fatal("empty offline baseline")
	}
	for _, workers := range []int{1, 4} {
		_, got := runEngine(t, sim, capture, workers)
		t.Run(map[int]string{1: "one-shard", 4: "four-shards"}[workers], func(t *testing.T) {
			assertEquivalent(t, want, got)
		})
	}
}

func TestShardedClusteringDeterministic(t *testing.T) {
	// Merged features are sorted, so the seeded clustering must agree
	// between shard counts.
	sim, tr := simulate(t, 12, 3*time.Minute)
	capture := tracePCAP(t, tr)
	_, one := runEngine(t, sim, capture, 1)
	_, four := runEngine(t, sim, capture, 4)
	c1, err1 := one.ClusterReport(5, 42)
	c4, err4 := four.ClusterReport(5, 42)
	if err1 != nil || err4 != nil {
		t.Fatalf("clustering failed: %v / %v", err1, err4)
	}
	if !reflect.DeepEqual(c1.Sizes, c4.Sizes) || !reflect.DeepEqual(c1.Assign, c4.Assign) {
		t.Errorf("cluster results differ across shard counts: %v vs %v", c1.Sizes, c4.Sizes)
	}
}

func TestRecordSourceMatchesPCAP(t *testing.T) {
	// The in-process simulator feed (cmd/iec104live's path) must yield
	// the same profile as analyzing the recorded pcap offline.
	sim, tr := simulate(t, 13, 2*time.Minute)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)

	e := New(Config{Workers: 2, Names: core.NamesFromTopology(sim.Network())})
	if err := e.Run(context.Background(), NewRecordSource(tr.Records, 0)); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, want, e.Final())
}

func TestFollowSourceTailsGrowingFile(t *testing.T) {
	sim, tr := simulate(t, 14, 90*time.Second)
	capture := tracePCAP(t, tr)
	// Count the packets so we know when the engine has caught up.
	want := offlinePartial(t, sim, capture)

	path := filepath.Join(t.TempDir(), "grow.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Start with the header and the first third, including a torn
	// record: follow mode must wait for the remainder, not error.
	third := 24 + (len(capture)-24)/3
	if _, err := f.Write(capture[:third+7]); err != nil {
		t.Fatal(err)
	}

	src, err := NewFollowSource(path)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, PollInterval: time.Millisecond, Names: core.NamesFromTopology(sim.Network())})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, src) }()

	// Grow the file in two more steps.
	if _, err := f.Write(capture[third+7 : 2*third]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(capture[2*third:]); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if p := e.Snapshot(); p.Packets == want.Packets {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine saw %d packets, want %d", e.Snapshot().Packets, want.Packets)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	src.Close()
	assertEquivalent(t, want, e.Final())
}

func TestReplaySourceTimeScales(t *testing.T) {
	sim, tr := simulate(t, 15, 1*time.Minute)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)

	// 1 simulated minute at 6000x is ~10ms of wall time: fast enough
	// for a test, slow enough to exercise the ErrNotReady path.
	pcapSrc, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	src := NewReplaySource(pcapSrc, 6000)
	e := New(Config{Workers: 2, PollInterval: time.Millisecond, Names: core.NamesFromTopology(sim.Network())})
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if got := e.Final(); got.Packets != want.Packets || got.TotalASDUs != want.TotalASDUs {
		t.Errorf("replayed %d packets / %d ASDUs, want %d / %d",
			got.Packets, got.TotalASDUs, want.Packets, want.TotalASDUs)
	}
}

func TestDropPolicyCountsSheddedBatches(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, QueueDepth: 1, Policy: DropNewest, Registry: reg})
	// One reader attached, but the shard goroutine is not running, so
	// the queue fills and the second enqueue must shed instead of
	// blocking.
	rd := e.attach([]Source{nil})[0]
	mkBatch := func() *batch {
		b := rd.pool.get()
		b.pkts = append(b.pkts, make([]pcap.Packet, 3)...)
		return b
	}
	ctx := context.Background()
	if !rd.enqueue(ctx, 0, mkBatch()) || !rd.enqueue(ctx, 0, mkBatch()) {
		t.Fatal("enqueue returned false without cancellation")
	}
	if got := reg.Counter(MetricDroppedBatches, "shard", "0").Value(); got != 1 {
		t.Fatalf("dropped batches %d, want 1", got)
	}
	if got := reg.Counter(MetricDroppedPackets, "shard", "0").Value(); got != 3 {
		t.Fatalf("dropped packets %d, want 3", got)
	}
	if got := reg.Counter(MetricBatches).Value(); got != 2 {
		t.Fatalf("batches %d, want 2", got)
	}
	// The shard goroutine never started, so the loss is attributed to
	// an idle shard.
	if got := reg.Counter(MetricDropCause, "shard", "0", "cause", "idle").Value(); got != 1 {
		t.Fatalf("idle-attributed drops %d, want 1", got)
	}
}

// TestEngineNoBaselineNoDrift: an engine run with no snapshot hook — no
// drift watch attached — still publishes its final profile, serves it
// at /profile, and its route map has no /drift (a mux answers 404) and
// no drift metrics.
func TestEngineNoBaselineNoDrift(t *testing.T) {
	sim, tr := simulate(t, 1, 2*time.Minute)
	src, err := NewPCAPSource(bytes.NewReader(tracePCAP(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e := New(Config{Workers: 2, Names: core.NamesFromTopology(sim.Network()), Registry: reg})
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if p := e.Profile(); p == nil || p.Packets == 0 {
		t.Fatalf("final profile not published: %+v", p)
	}
	mux := http.NewServeMux()
	for path, h := range Endpoints(e) {
		mux.Handle(path, h)
	}
	for path, want := range map[string]int{"/profile": 200, "/drift": 404} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != want {
			t.Errorf("%s without a baseline: status %d, want %d", path, rr.Code, want)
		}
	}
	var m bytes.Buffer
	if err := reg.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(m.Bytes(), []byte("uncharted_stream_drift_")) {
		t.Error("drift metrics registered without a baseline")
	}
}

func TestRollingProfileAndHTTP(t *testing.T) {
	sim, tr := simulate(t, 16, 2*time.Minute)
	capture := tracePCAP(t, tr)
	reg := obs.NewRegistry()
	e := New(Config{
		Workers:       2,
		SnapshotEvery: 10 * time.Millisecond,
		ClusterK:      5,
		Registry:      reg,
		Names:         core.NamesFromTopology(sim.Network()),
	})
	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	prof := e.Profile()
	if prof == nil {
		t.Fatal("no profile published")
	}
	if prof.Packets == 0 || prof.TotalASDUs == 0 || prof.Flows.Total == 0 {
		t.Fatalf("empty profile: %+v", prof)
	}
	if prof.Workers != 2 {
		t.Fatalf("profile workers %d", prof.Workers)
	}
	if len(prof.Markov.Connections) == 0 || len(prof.Physical) == 0 {
		t.Fatal("profile missing markov/physical sections")
	}

	// The profile is served over the shared obs mux.
	srv := httptest.NewServer(obs.HandlerWith(reg, nil, map[string]http.Handler{
		"/profile": NewProfileHandler(e.Profile),
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served Profile
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Packets != prof.Packets || served.Seq != prof.Seq {
		t.Fatalf("served profile %d/%d, want %d/%d", served.Packets, served.Seq, prof.Packets, prof.Seq)
	}
	// The Prometheus endpoint carries the engine counters.
	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if !bytes.Contains(body, []byte(MetricPackets)) {
		t.Fatal("stream metrics missing from /metrics")
	}
}

func TestObserverWiredPerShard(t *testing.T) {
	// Train a baseline on clean traffic, then stream an attacked trace
	// with per-shard online monitors: alerts must fire during the run.
	simClean, trClean := simulate(t, 21, 2*time.Minute)
	base := offlineAnalyzer(t, simClean, tracePCAP(t, trClean))
	baseline, err := ids.Train(base)
	if err != nil {
		t.Fatal(err)
	}

	cfgAtk := scadasim.DefaultConfig(topology.Y1, 21)
	cfgAtk.Duration = 2 * time.Minute
	simAtk, err := scadasim.New(cfgAtk)
	if err != nil {
		t.Fatal(err)
	}
	trAtk, err := simAtk.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simAtk.InjectAttack(trAtk, scadasim.AttackConfig{
		Kind: scadasim.AttackRecon, At: cfgAtk.Start.Add(time.Minute),
	}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var alerts []ids.Alert
	sink := func(al ids.Alert) {
		mu.Lock()
		alerts = append(alerts, al)
		mu.Unlock()
	}
	e := New(Config{
		Workers: 4,
		Names:   core.NamesFromTopology(simAtk.Network()),
		Observer: func(int) core.FrameObserver {
			return ids.NewMonitor(baseline, sink)
		},
	})
	if err := e.Run(context.Background(), NewRecordSource(trAtk.Records, 0)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var rogue bool
	for _, al := range alerts {
		if al.Kind == ids.AlertNewEndpoint {
			rogue = true
		}
	}
	if !rogue {
		t.Fatalf("recon attack raised no new-endpoint alert; %d alerts total", len(alerts))
	}
}

func offlineAnalyzer(t testing.TB, sim *scadasim.Simulator, capture []byte) *core.Analyzer {
	t.Helper()
	a := core.NewAnalyzer(core.NamesFromTopology(sim.Network()))
	if err := a.ReadPCAP(bytes.NewReader(capture)); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSealedPartialsDoNotAliasShards: every partial a periodic snapshot
// publishes is a copy of the shards' live count tables and digests, not
// a view of them. Each one's drift encoding, taken again after the
// shards have consumed the rest of the capture, is byte for byte what
// it was when it was published. CI runs this under -race, where a
// shared table would also show as a data race between the shard that
// keeps counting and the encoder reading here.
func TestSealedPartialsDoNotAliasShards(t *testing.T) {
	sim, tr := simulate(t, 7, 3*time.Minute)
	capture := tracePCAP(t, tr)
	encode := func(p core.Partial) []byte {
		return drift.NewProfile("alias", "alias", p, goldenSavedAt).Encode()
	}
	type sealed struct {
		part core.Partial
		enc  []byte
	}
	var kept []sealed
	e := New(Config{
		Workers:       2,
		SnapshotEvery: time.Millisecond,
		Names:         core.NamesFromTopology(sim.Network()),
		// Snapshot calls the hook under its own lock, one at a time.
		OnSnapshot: func(p core.Partial, _ *Profile, final bool) {
			if !final && len(kept) < 64 {
				kept = append(kept, sealed{p, encode(p)})
			}
		},
	})
	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if len(kept) < 2 {
		t.Skipf("only %d mid-run snapshots: the capture drained too fast to test aliasing", len(kept))
	}
	finalEnc := encode(e.Final())
	moved := 0
	for i, s := range kept {
		if !bytes.Equal(encode(s.part), s.enc) {
			t.Fatalf("snapshot %d of %d changed after it was published", i+1, len(kept))
		}
		if !bytes.Equal(s.enc, finalEnc) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no mid-run snapshot differs from the final state: nothing was fed after them")
	}
	t.Logf("%d mid-run snapshots, %d before the end of the capture", len(kept), moved)
}
