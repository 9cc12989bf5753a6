package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
	"uncharted/internal/topology"
)

// driftHomes are the two places a drift watch runs: the analyzer's
// baseline param, and a drift segment behind the analyzer (whose
// alerts a log output prints).
var driftHomes = []string{"an", "drift"}

// driftRun is what one home made of one capture.
type driftRun struct {
	rep     *drift.DriftReport
	served  *httptest.ResponseRecorder // GET of the home's /drift
	drifts  int                        // DRIFT log lines
	alerts  int                        // alerts the drift segment emitted
	events  []obs.Event                // drift journal events
	metrics string                     // Prometheus exposition after the run
}

// runDriftHome runs capture through pcap → an (→ drift → log when home
// is "drift") and returns what the home's watch published.
func runDriftHome(t *testing.T, home, capture, baseline string, workers int) driftRun {
	t.Helper()
	an := map[string]any{"workers": workers, "names": true}
	if home == "an" {
		an["baseline"] = baseline
	}
	cfg := SourceGraph("p", "src", "pcap", map[string]any{"path": capture}, an)
	if home == "drift" {
		p := &cfg.Pipelines[0]
		p.Nodes = append(p.Nodes,
			presetNode("drift", "drift", []string{"an"}, map[string]any{"baseline": baseline}),
			presetNode("log", "log", []string{"drift"}, nil))
	}
	var (
		mu    sync.Mutex
		lines []string
		jbuf  bytes.Buffer
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	reg, journal := obs.NewRegistry(), obs.NewJournal(&jbuf)
	runner, err := NewRunner(cfg, Options{Registry: reg, Journal: journal, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := journal.Err(); err != nil {
		t.Fatal(err)
	}

	run := driftRun{served: httptest.NewRecorder()}
	h := runner.Endpoints()["/pipelines/p/drift/drift"]
	if home == "an" {
		run.rep, h = runner.Analyzer().DriftReport(), runner.Analyzer().Endpoints()["/drift"]
	} else {
		run.rep = runner.Segment("p", "drift").(*DriftSegment).watch.report()
	}
	h.ServeHTTP(run.served, httptest.NewRequest(http.MethodGet, "/drift", nil))
	for _, l := range lines {
		run.drifts += strings.Count(l, "DRIFT ["+home+"]")
		run.alerts += strings.Count(l, "ALERT [log]")
	}
	sc := bufio.NewScanner(&jbuf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == obs.EventDrift {
			run.events = append(run.events, ev)
		}
	}
	var m bytes.Buffer
	if err := reg.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	run.metrics = m.String()
	return run
}

// saveBaseline stores the drift profile of an offline read of capture.
func saveBaseline(t *testing.T, capture, label string, at time.Time) string {
	t.Helper()
	f, err := os.Open(capture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := core.NewAnalyzer(core.NamesFromTopology(topology.Build()))
	if err := a.ReadPCAP(f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), label+".prof")
	if err := drift.SaveProfile(path, drift.NewProfile(label, capture, a.Partial(), at)); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkDriftRun asserts what every home owes a run with a baseline:
// one DRIFT line — and for the drift segment one alert — per finding,
// the report served at /drift, one summary journal event plus one per
// finding, each naming the home, and the three drift metrics on the
// home's registry only.
func checkDriftRun(t *testing.T, home string, run driftRun) {
	t.Helper()
	if run.rep == nil {
		t.Fatal("no drift report published")
	}
	n := len(run.rep.Findings)
	if run.drifts != n {
		t.Errorf("%d DRIFT lines for %d findings", run.drifts, n)
	}
	if want := map[string]int{"an": 0, "drift": n}[home]; run.alerts != want {
		t.Errorf("%d alerts emitted, want %d", run.alerts, want)
	}
	if run.served.Code != http.StatusOK {
		t.Fatalf("/drift status %d", run.served.Code)
	}
	var served drift.DriftReport
	if err := json.Unmarshal(run.served.Body.Bytes(), &served); err != nil {
		t.Fatalf("/drift body: %v", err)
	}
	if len(served.Findings) != n {
		t.Errorf("/drift served %d findings, the watch holds %d", len(served.Findings), n)
	}
	if len(run.events) != 1+n {
		t.Errorf("%d drift journal events, want a summary and %d findings", len(run.events), n)
	}
	for _, ev := range run.events {
		if ev.Attrs["segment"] != home {
			t.Errorf("drift event %+v not labelled segment=%s", ev, home)
		}
	}
	for _, name := range []string{"uncharted_stream_drift_compares_total", "uncharted_stream_drift_findings", "uncharted_stream_drift_max_severity"} {
		if got := strings.Count(run.metrics, "\n"+name+"{"); got != 1 ||
			!strings.Contains(run.metrics, "\n"+name+`{pipeline="p",segment="`+home+`"}`) {
			t.Errorf("%s: %d series, want one labelled segment=%s", name, got, home)
		}
	}
}

// TestDriftEraChange: with the Y1 profile as baseline, the Y2 capture
// drifts — the paper's §6 longitudinal comparison running live — and
// both homes report it identically.
func TestDriftEraChange(t *testing.T) {
	dur := 10 * time.Minute
	baseline := saveBaseline(t, writeEraCapture(t, topology.Y1, dur, 1), "2017-11",
		time.Date(2017, 11, 7, 0, 0, 0, 0, time.UTC))
	y2 := writeEraCapture(t, topology.Y2, dur, 1)
	reps := map[string]*drift.DriftReport{}
	for _, home := range driftHomes {
		t.Run(home, func(t *testing.T) {
			run := runDriftHome(t, home, y2, baseline, 3)
			checkDriftRun(t, home, run)
			if len(run.rep.Findings) == 0 {
				t.Fatal("era change produced no findings")
			}
			if run.rep.MaxSeverity() < drift.SevWarn {
				t.Errorf("max severity %d, want at least warn for an era change", run.rep.MaxSeverity())
			}
			reps[home] = run.rep
		})
	}
	if !reflect.DeepEqual(reps["an"], reps["drift"]) {
		t.Errorf("final reports differ between the analyzer's baseline param and the drift segment")
	}
}

// TestDriftSelfBaselineQuiet: streaming the very capture the baseline
// was built from stays quiet in both homes — shard merge noise is not
// drift.
func TestDriftSelfBaselineQuiet(t *testing.T) {
	capture := writeEraCapture(t, topology.Y1, 10*time.Minute, 1)
	baseline := saveBaseline(t, capture, "self", time.Time{})
	reps := map[string]*drift.DriftReport{}
	for _, home := range driftHomes {
		t.Run(home, func(t *testing.T) {
			run := runDriftHome(t, home, capture, baseline, 4)
			checkDriftRun(t, home, run)
			if len(run.rep.Findings) != 0 {
				t.Fatalf("self-comparison drifted: %v", run.rep.Findings)
			}
			reps[home] = run.rep
		})
	}
	if !reflect.DeepEqual(reps["an"], reps["drift"]) {
		t.Errorf("final reports differ between the analyzer's baseline param and the drift segment")
	}
}

// TestDriftNoBaselineNoRoute: an analyzer without a baseline has no
// /drift route, no report and no drift metrics — its query surface is
// the engine's /profile, /statusz and /readyz — and a drift segment
// cannot be declared without one.
func TestDriftNoBaselineNoRoute(t *testing.T) {
	capture := writeTestCapture(t, 2*time.Minute, 1)
	reg := obs.NewRegistry()
	runner, err := NewRunner(SourceGraph("p", "src", "pcap", map[string]any{"path": capture}, map[string]any{"workers": 2}),
		Options{Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	a := runner.Analyzer()
	eps := a.Endpoints()
	for _, want := range []string{"/profile", "/statusz", "/readyz"} {
		if eps[want] == nil {
			t.Errorf("Endpoints missing %s", want)
		}
	}
	if eps["/drift"] != nil || eps["/query"] != nil {
		t.Error("drift or query endpoint present without a baseline or historian")
	}
	if rep, seq := a.Drift(); rep != nil || seq != 0 || a.DriftReport() != nil {
		t.Errorf("drift report %v at seq %d without a baseline", rep, seq)
	}
	var m bytes.Buffer
	if err := reg.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(m.String(), "uncharted_stream_drift_") {
		t.Error("drift metrics registered without a baseline")
	}

	cfg := SourceGraph("p", "src", "pcap", map[string]any{"path": capture}, nil)
	cfg.Pipelines[0].Nodes = append(cfg.Pipelines[0].Nodes, presetNode("drift", "drift", []string{"an"}, nil))
	if _, err := NewRunner(cfg, Options{Logf: t.Logf}); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("drift segment without a baseline: err %v, want a missing-baseline error", err)
	}
}

// TestDriftHandler: a watch serves its latest report as JSON or text,
// and 503 before its first comparison.
func TestDriftHandler(t *testing.T) {
	w := &driftWatch{}
	serve := func(url string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		w.handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
		return rr
	}
	if rr := serve("/drift"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("before the first comparison: code %d, want 503", rr.Code)
	}
	w.last.Store(&driftState{seq: 1, rep: &drift.DriftReport{}})
	for url, ct := range map[string]string{
		"/drift":             "application/json; charset=utf-8",
		"/drift?format=text": "text/plain; charset=utf-8",
	} {
		if rr := serve(url); rr.Code != http.StatusOK || rr.Header().Get("Content-Type") != ct {
			t.Errorf("%s: code %d CT %q, want 200 %q", url, rr.Code, rr.Header().Get("Content-Type"), ct)
		}
	}
	if rr := serve("/drift?format=xml"); rr.Code != http.StatusBadRequest {
		t.Errorf("unknown format: code %d, want 400", rr.Code)
	}
}

// TestCanceledRunKeepsHistorianError: canceling a live run is a clean
// drain, but not when the historian failed along the way — the segment
// must not drop that error with the cancellation.
func TestCanceledRunKeepsHistorianError(t *testing.T) {
	capture := writeTestCapture(t, 30*time.Second, 11)
	cfg := SourceGraph("p", "src", "follow", map[string]any{"path": capture},
		map[string]any{"historian": t.TempDir()})
	runner, err := NewRunner(cfg, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	an := runner.Analyzer()
	if err := an.hist.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runner.Run(ctx) }()
	deadline := time.Now().Add(30 * time.Second)
	for an.SourcePackets() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the analyzer read no packets")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run returned %v, want an error wrapping %v", err, os.ErrClosed)
	}
}

// TestAnalyzerHistorianMatchesSerialRecorder: the analyzer's historian
// param over a handed-off capture records the same history as one
// serial analyzer feeding a historian.Recorder, at one and two shards.
// Two shards may interleave one point's appends, so there the block
// layout may differ while every point's samples still match.
func TestAnalyzerHistorianMatchesSerialRecorder(t *testing.T) {
	capture := writeTestCapture(t, time.Minute, 11)
	want, err := historian.Open(t.TempDir(), historian.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	serial := core.NewAnalyzer(core.NamesFromTopology(topology.Build()))
	rec := historian.NewRecorder(want)
	serial.SetFrameObserver(rec)
	f, err := os.Open(capture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := serial.ReadPCAP(f); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	wantCat := want.Catalog()
	if len(wantCat) == 0 {
		t.Fatal("serial recorder recorded no points")
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The pcap input feeds the analyzer alone, so its source is
			// handed off to the engine.
			cfg := SourceGraph("p", "src", "pcap", map[string]any{"path": capture},
				map[string]any{"workers": workers, "historian": t.TempDir()})
			runner, err := NewRunner(cfg, Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			if err := runner.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			got := runner.Analyzer().hist
			gotCat := got.Catalog()
			if workers == 1 && !reflect.DeepEqual(wantCat, gotCat) {
				t.Fatalf("catalogs differ: serial %d points, analyzer %d", len(wantCat), len(gotCat))
			}
			if len(gotCat) != len(wantCat) {
				t.Fatalf("serial catalog has %d points, analyzer %d", len(wantCat), len(gotCat))
			}
			for i, w := range wantCat {
				g := gotCat[i]
				if g.Key != w.Key || g.Type != w.Type || g.Command != w.Command || g.Samples != w.Samples {
					t.Fatalf("point %d: serial %v %v command=%v %d samples, analyzer %v %v command=%v %d samples",
						i, w.Key, w.Type, w.Command, w.Samples, g.Key, g.Type, g.Command, g.Samples)
				}
				ws, err := want.Query(w.Key, time.Time{}, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				gs, err := got.Query(w.Key, time.Time{}, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ws, gs) {
					t.Errorf("%v: serial %d samples, analyzer %d, or they differ", w.Key, len(ws), len(gs))
				}
			}
		})
	}
}
