package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pcap"
)

// decodedOnly hides a source's RawSource face so the engine takes the
// decoded read path.
type decodedOnly struct{ Source }

// TestEngineTracingRawPath: a traced 4-shard run over the raw fast
// path records spans for every hot-path stage, feeds the per-stage
// histograms, journals EventSpan lines, exports a loadable Chrome
// trace — and still produces exactly the offline profile.
func TestEngineTracingRawPath(t *testing.T) {
	sim, tr := simulate(t, 21, 5*time.Minute)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)

	histDir := t.TempDir()
	hist, err := historian.Open(histDir, historian.Options{FlushSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()

	reg := obs.NewRegistry()
	var journal bytes.Buffer
	rec := trace.New(trace.Config{SampleEvery: 1, RingSize: 1 << 14, Registry: reg})
	e := New(Config{
		Workers:       4,
		SnapshotEvery: 10 * time.Millisecond,
		Registry:      reg,
		Journal:       obs.NewJournal(&journal),
		Trace:         rec,
		Historian:     hist,
		Names:         core.NamesFromTopology(sim.Network()),
	})
	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, want, e.Final())

	// Every raw-path stage shows up in some lane.
	stages := map[string]bool{}
	lanes := map[string]bool{}
	for _, ls := range rec.Snapshot() {
		lanes[ls.Lane] = true
		for _, s := range ls.Spans {
			stages[s.Stage.String()] = true
		}
	}
	for _, lane := range []string{"reader0", "0", "1", "2", "3", "snapshot"} {
		if !lanes[lane] {
			t.Errorf("missing lane %q (have %v)", lane, lanes)
		}
	}
	for _, st := range []string{"read", "route", "enqueue", "decode", "feed", "historian", "merge", "publish"} {
		if !stages[st] {
			t.Errorf("no spans for stage %q (have %v)", st, stages)
		}
	}

	// The same spans fed the latency histograms...
	if h := reg.Histogram(trace.StageSecondsMetric, obs.DurationBuckets, "stage", "decode", "shard", "0"); h.Count() == 0 {
		t.Error("decode histogram for shard 0 is empty")
	}
	// ...and the journal received span events.
	if err := e.cfg.Journal.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journal.Bytes(), []byte(`"type":"span"`)) {
		t.Error("journal has no span events")
	}

	// The Chrome export parses and names every stage.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			seen[ev.Name] = true
		}
	}
	for _, st := range []string{"read", "route", "enqueue", "decode", "feed", "merge", "publish"} {
		if !seen[st] {
			t.Errorf("chrome export missing stage %q", st)
		}
	}
}

// TestEngineTracingDecodedPath: a Source without a raw face traces
// read/enqueue/feed but never route/decode — the shape cmd/tracecheck
// asserts for simulator-fed runs.
func TestEngineTracingDecodedPath(t *testing.T) {
	sim, tr := simulate(t, 22, 2*time.Minute)
	capture := tracePCAP(t, tr)

	rec := trace.New(trace.Config{SampleEvery: 1})
	e := New(Config{Workers: 2, Trace: rec, Names: core.NamesFromTopology(sim.Network())})
	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), decodedOnly{src}); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, ls := range rec.Snapshot() {
		for _, s := range ls.Spans {
			stages[s.Stage.String()] = true
		}
	}
	for _, st := range []string{"read", "enqueue", "feed", "merge", "publish"} {
		if !stages[st] {
			t.Errorf("decoded path missing stage %q (have %v)", st, stages)
		}
	}
	if stages["route"] || stages["decode"] {
		t.Errorf("decoded path recorded raw-only stages: %v", stages)
	}
}

// TestEngineUntracedUnchanged: with no recorder configured the traced
// call sites are inert and the profile is still exact.
func TestEngineUntracedUnchanged(t *testing.T) {
	sim, tr := simulate(t, 23, 2*time.Minute)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)
	e := New(Config{Workers: 3, Names: core.NamesFromTopology(sim.Network())})
	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, want, e.Final())
}

// TestStatuszAndReadiness: the /statusz document reflects the engine,
// and Ready flips through the lifecycle with machine-readable reasons.
func TestStatuszAndReadiness(t *testing.T) {
	sim, tr := simulate(t, 24, 2*time.Minute)
	capture := tracePCAP(t, tr)

	reg := obs.NewRegistry()
	rec := trace.New(trace.Config{SampleEvery: 1, Registry: reg})
	e := New(Config{Workers: 2, Registry: reg, Trace: rec, Names: core.NamesFromTopology(sim.Network())})

	if ready, reason := e.Ready(); ready || reason != "engine not started" {
		t.Fatalf("pre-run Ready = %v %q", ready, reason)
	}
	rr := httptest.NewRecorder()
	obs.ReadyHandler(e.Ready).ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 || !strings.Contains(rr.Body.String(), "engine not started") {
		t.Fatalf("pre-run /readyz = %d %q", rr.Code, rr.Body.String())
	}

	src, err := NewPCAPSource(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if ready, reason := e.Ready(); ready || reason != "stopped" {
		t.Fatalf("post-run Ready = %v %q", ready, reason)
	}

	st := e.Status()
	if st.State != "done" || st.Workers != 2 || len(st.Shards) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if st.Packets == 0 || st.Batches == 0 {
		t.Fatalf("status counts empty: %+v", st)
	}
	if len(st.Stages) == 0 {
		t.Fatal("status has no stage rows despite tracing")
	}
	for _, sg := range st.Stages {
		if sg.P99 < sg.P50 {
			t.Errorf("stage %s/%s p99 %v < p50 %v", sg.Lane, sg.Stage, sg.P99, sg.P50)
		}
	}

	// JSON view round-trips.
	rr = httptest.NewRecorder()
	NewStatusHandler(e.Status).ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=json", nil))
	if rr.Code != 200 {
		t.Fatalf("/statusz?format=json = %d", rr.Code)
	}
	var served Status
	if err := json.Unmarshal(rr.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	if served.State != "done" || served.Packets != st.Packets {
		t.Errorf("served status %+v, want %+v", served, st)
	}

	// HTML view serves and mentions the shards.
	rr = httptest.NewRecorder()
	NewStatusHandler(e.Status).ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "shards") {
		t.Fatalf("/statusz HTML = %d", rr.Code)
	}
}

// TestStatuszStagesUnderScopedRegistry: a hosted engine books its own
// metrics on a label view of the registry while its flight recorder
// feeds the stage histograms on the root, as pipeline.Host wires them.
// Its /statusz still lists every stage row the recorder holds, with the
// counts the root registry exposes for them.
func TestStatuszStagesUnderScopedRegistry(t *testing.T) {
	sim, tr := simulate(t, 25, time.Minute)
	root := obs.NewRegistry()
	rec := trace.New(trace.Config{SampleEvery: 1, Registry: root})
	e := New(Config{
		Workers:  2,
		Registry: root.With("pipeline", "live").With("segment", "an"),
		Trace:    rec,
		Names:    core.NamesFromTopology(sim.Network()),
	})
	src, err := NewPCAPSource(bytes.NewReader(tracePCAP(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}

	want := map[string]uint64{} // lane/stage → spans, as /metrics has them
	for _, h := range root.Snapshot().Histograms {
		if h.Name != trace.StageSecondsMetric || h.Count == 0 {
			continue
		}
		label := map[string]string{}
		for i := 0; i+1 < len(h.Labels); i += 2 {
			label[h.Labels[i]] = h.Labels[i+1]
		}
		want[label["shard"]+"/"+label["stage"]] = h.Count
	}
	if len(want) == 0 {
		t.Fatal("the traced run fed no stage histogram")
	}
	st := e.Status()
	if len(st.Stages) != len(want) {
		t.Errorf("%d stage rows, want the %d the root registry holds", len(st.Stages), len(want))
	}
	for _, sg := range st.Stages {
		if n := want[sg.Lane+"/"+sg.Stage]; sg.Count != n {
			t.Errorf("stage %s/%s: %d spans, the registry has %d", sg.Lane, sg.Stage, sg.Count, n)
		}
	}
}

// TestStatusCostIndependentOfRegistry: with tracing off, a /statusz of
// an engine whose registry holds thousands of other series allocates
// what one beside ten does — the document reads no registry.
func TestStatusCostIndependentOfRegistry(t *testing.T) {
	allocs := func(foreign int) float64 {
		reg := obs.NewRegistry()
		for i := 0; i < foreign; i++ {
			reg.Counter("uncharted_foreign_total", "i", strconv.Itoa(i))
			reg.Histogram(trace.StageSecondsMetric, obs.DurationBuckets, "stage", "feed", "shard", strconv.Itoa(i)).Observe(1e-3)
		}
		e := New(Config{Workers: 2, Registry: reg})
		return testing.AllocsPerRun(20, func() { e.Status() })
	}
	if few, many := allocs(10), allocs(5000); many != few {
		t.Errorf("Status allocates %v times beside 5000 foreign series, %v beside 10", many, few)
	}
}

// TestBlockPolicyAttributesStalls: a wedged shard forces the Block
// reader to stall, and the stall is attributed to the stage the shard
// was observed in.
func TestBlockPolicyAttributesStalls(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Workers: 1, QueueDepth: 1, Registry: reg})
	sh := e.shards[0]
	sh.cur.Store(int32(trace.StageFeed)) // the shard "is" feeding
	rd := e.attach([]Source{nil})[0]

	mkBatch := func() *batch {
		b := rd.pool.get()
		b.pkts = append(b.pkts, make([]pcap.Packet, 2)...)
		return b
	}
	ctx := context.Background()
	if !rd.enqueue(ctx, 0, mkBatch()) { // fills the queue
		t.Fatal("first enqueue failed")
	}
	// Second enqueue blocks; free a slot shortly after so it lands.
	go func() {
		time.Sleep(20 * time.Millisecond)
		(<-sh.queues()[0]).recycle()
	}()
	if !rd.enqueue(ctx, 0, mkBatch()) {
		t.Fatal("second enqueue failed")
	}
	if got := reg.Counter(MetricStalls, "shard", "0", "cause", "feed").Value(); got != 1 {
		t.Fatalf("feed-attributed stalls = %d, want 1", got)
	}
	if h := reg.Histogram(MetricStallSeconds, obs.DurationBuckets, "shard", "0"); h.Count() != 1 {
		t.Fatalf("stall duration observations = %d, want 1", h.Count())
	}
	// Drain the remaining batch so nothing leaks into other tests.
	(<-sh.queues()[0]).recycle()
}
