package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// writeTestCapture synthesizes a short era-1 capture.
func writeTestCapture(t *testing.T, dur time.Duration, seed int64) string {
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
	path := filepath.Join(t.TempDir(), "capture.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePCAP(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfilerPresetEquivalence pins the tentpole guarantee: the
// declared profiler graph produces exactly the analysis state and
// profile the hand-wired streaming engine produced before the
// refactor, at one shard and at four.
func TestProfilerPresetEquivalence(t *testing.T) {
	path := writeTestCapture(t, 20*time.Second, 11)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The pre-refactor wiring: engine + pcap source by hand.
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			src, err := stream.NewPCAPSource(f)
			if err != nil {
				t.Fatal(err)
			}
			eng := stream.New(stream.Config{
				Workers:     workers,
				ClusterK:    5,
				ClusterSeed: 1202,
				Names:       core.NamesFromTopology(topology.Build()),
			})
			if err := eng.Run(context.Background(), src); err != nil {
				t.Fatalf("hand-wired run: %v", err)
			}
			src.Close()
			wantPartial := eng.Final()
			wantProfile := eng.Profile()

			// The declared graph.
			cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Workers: workers, Names: true})
			runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			seg := runner.Segment("profiler", "an").(*AnalyzerSegment)
			if err := runner.Run(context.Background()); err != nil {
				t.Fatalf("pipeline run: %v", err)
			}
			gotPartial := seg.Engine().Final()
			gotProfile := seg.Engine().Profile()

			if gotPartial.Packets == 0 {
				t.Fatal("pipeline analyzed zero packets")
			}
			if !reflect.DeepEqual(wantPartial, gotPartial) {
				t.Errorf("final partial differs between hand-wired and pipeline paths\nhand-wired: packets=%d flows=%d asdus=%d\npipeline:   packets=%d flows=%d asdus=%d",
					wantPartial.Packets, wantPartial.Flows.Total(), wantPartial.TotalASDUs,
					gotPartial.Packets, gotPartial.Flows.Total(), gotPartial.TotalASDUs)
			}
			if !reflect.DeepEqual(wantProfile, gotProfile) {
				wj, _ := json.Marshal(wantProfile)
				gj, _ := json.Marshal(gotProfile)
				t.Errorf("profile differs between hand-wired and pipeline paths\nhand-wired: %s\npipeline:   %s", wj, gj)
			}
		})
	}
}

// TestProfilerHandoffEquivalence pins the parallel-ingest plumbing:
// a pcap input with readers > 1 hands the capture file to the analyzer
// whole, and the N-reader segmented engine produces exactly the state
// the inline-decoding graph produces.
func TestProfilerHandoffEquivalence(t *testing.T) {
	path := writeTestCapture(t, 20*time.Second, 13)

	run := func(readers int) core.Partial {
		cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Workers: 2, Readers: readers, Names: true})
		runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return runner.Segment("profiler", "an").(*AnalyzerSegment).Engine().Final()
	}

	want := run(0) // inline decode, no handoff
	got := run(4)  // source handoff, 4 segment readers
	if want.Packets == 0 {
		t.Fatal("inline graph analyzed zero packets")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("handoff path differs from inline path: packets %d vs %d, asdus %d vs %d",
			want.Packets, got.Packets, want.TotalASDUs, got.TotalASDUs)
	}
}

// TestHandoffValidation pins the runner's topology check: a source
// handoff moves ownership of one file, so it must feed exactly one
// analyzer.
func TestHandoffValidation(t *testing.T) {
	path := writeTestCapture(t, 2*time.Second, 5)
	build := func(doc string) error {
		cfg, err := Parse([]byte(doc), "handoff.jsonc")
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewRunner(cfg, Options{Logf: t.Logf})
		return err
	}

	t.Run("fan-out rejected", func(t *testing.T) {
		err := build(fmt.Sprintf(`{"pipelines": [{"name": "p", "segments": [
		  { "id": "src", "segment": "pcap", "params": { "path": %q, "readers": 2 } },
		  { "id": "a1", "segment": "analyzer", "from": ["src"] },
		  { "id": "a2", "segment": "analyzer", "from": ["src"] }
		]}]}`, path))
		if err == nil {
			t.Fatal("handoff into two consumers built, want error")
		}
	})

	t.Run("non-analyzer consumer rejected", func(t *testing.T) {
		err := build(fmt.Sprintf(`{"pipelines": [{"name": "p", "segments": [
		  { "id": "src", "segment": "pcap", "params": { "path": %q, "readers": 2 } },
		  { "id": "f", "segment": "sample", "from": ["src"], "params": { "every": 2 } }
		]}]}`, path))
		if err == nil {
			t.Fatal("handoff into a filter built, want error")
		}
	})

	t.Run("paced handoff rejected", func(t *testing.T) {
		err := build(fmt.Sprintf(`{"pipelines": [{"name": "p", "segments": [
		  { "id": "src", "segment": "pcap", "params": { "path": %q, "readers": 2, "speed": 60 } },
		  { "id": "an", "segment": "analyzer", "from": ["src"] }
		]}]}`, path))
		if err == nil {
			t.Fatal("paced handoff built, want error")
		}
	})
}

// TestRunnerTwoPipelines is the fleet guarantee: one Runner hosts two
// declared pipelines side by side, both complete, and outputs land.
func TestRunnerTwoPipelines(t *testing.T) {
	dir := t.TempDir()
	exportPath := filepath.Join(dir, "p1.json")
	doc := fmt.Sprintf(`{
	  "pipelines": [
	    {
	      "name": "p1",
	      "segments": [
	        { "id": "src", "segment": "sim", "params": { "duration": "5s", "seed": 3 } },
	        { "id": "an", "segment": "analyzer", "from": ["src"] },
	        { "id": "out", "segment": "export", "from": ["an"], "params": { "path": %q } }
	      ]
	    },
	    {
	      "name": "p2",
	      "segments": [
	        { "id": "src", "segment": "sim", "params": { "duration": "5s", "seed": 4 } },
	        { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "workers": 2 } },
	        { "id": "latest", "segment": "snapshot_http", "from": ["an"] }
	      ]
	    }
	  ]
	}`, exportPath)
	cfg, err := Parse([]byte(doc), "two.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(cfg, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.Pipelines(); len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Fatalf("Pipelines() = %v, want [p1 p2]", got)
	}
	if err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"p1", "p2"} {
		seg := runner.Segment(name, "an").(*AnalyzerSegment)
		if p := seg.Engine().Final(); p.Packets == 0 {
			t.Errorf("pipeline %s analyzed zero packets", name)
		}
	}

	// The export output wrote p1's final profile.
	data, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	var prof stream.Profile
	if err := json.Unmarshal(data, &prof); err != nil {
		t.Fatalf("export is not a profile: %v", err)
	}
	if want := runner.Segment("p1", "an").(*AnalyzerSegment).Engine().Final().Packets; prof.Packets != want {
		t.Errorf("exported profile has %d packets, engine final has %d", prof.Packets, want)
	}

	// The HTTP surface carries both pipelines' mounts.
	eps := runner.Endpoints()
	for _, path := range []string{"/statusz", "/pipelines/p1/an/profile", "/pipelines/p2/latest", "/pipelines/p2/statusz"} {
		if _, ok := eps[path]; !ok {
			t.Errorf("endpoint %s missing (have %d endpoints)", path, len(eps))
		}
	}

	// Status reflects completion.
	for _, st := range runner.Status() {
		for _, s := range st.Segments {
			if s.State != "done" {
				t.Errorf("pipeline %s segment %s state = %s, want done", st.Name, s.ID, s.State)
			}
		}
	}
}

// buildFilter constructs a registered filter segment directly, the way
// the runner would.
func buildFilter(t *testing.T, kind, params string) *FilterSegment {
	t.Helper()
	spec, ok := Lookup(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	p, err := parseParams(spec.Params, json.RawMessage(params))
	if err != nil {
		t.Fatal(err)
	}
	env := &Env{Pipeline: "test", Registry: obs.NewRegistry().With("pipeline", "test"), Logf: t.Logf}
	seg, err := spec.Build(BuildCtx{Pipeline: "test", ID: "f", Params: p, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	return seg.(*FilterSegment)
}

// runFilter pushes packets through a filter and collects the survivors.
func runFilter(t *testing.T, f *FilterSegment, pkts []pcap.Packet) []pcap.Packet {
	t.Helper()
	in := make(chan Msg, 1)
	in <- Msg{Pkts: pkts}
	close(in)
	var out []pcap.Packet
	if err := f.Run(context.Background(), in, func(m Msg) { out = append(out, m.Pkts...) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func mkPacket(src, dst string) pcap.Packet {
	var p pcap.Packet
	p.IP.Src = netip.MustParseAddr(src)
	p.IP.Dst = netip.MustParseAddr(dst)
	return p
}

func TestFilters(t *testing.T) {
	// C1 is 10.0.0.1 in the paper topology.
	pkts := []pcap.Packet{
		mkPacket("10.0.0.1", "10.0.1.5"),
		mkPacket("10.0.1.5", "10.0.0.1"),
		mkPacket("10.0.9.9", "10.0.8.8"),
		mkPacket("10.0.0.2", "10.0.9.9"),
	}

	t.Run("station keeps either direction", func(t *testing.T) {
		f := buildFilter(t, "station", `{"stations": ["C1"]}`)
		got := runFilter(t, f, pkts)
		if len(got) != 2 {
			t.Fatalf("kept %d packets, want 2", len(got))
		}
	})

	t.Run("station accepts literal IPs", func(t *testing.T) {
		f := buildFilter(t, "station", `{"stations": ["10.0.9.9"]}`)
		if got := runFilter(t, f, pkts); len(got) != 2 {
			t.Fatalf("kept %d packets, want 2", len(got))
		}
	})

	t.Run("station rejects unknown names", func(t *testing.T) {
		spec, _ := Lookup("station")
		p, err := parseParams(spec.Params, json.RawMessage(`{"stations": ["XX99"]}`))
		if err != nil {
			t.Fatal(err)
		}
		env := &Env{Pipeline: "test", Registry: obs.NewRegistry(), Logf: t.Logf}
		if _, err := spec.Build(BuildCtx{Pipeline: "test", ID: "f", Params: p, Env: env}); err == nil {
			t.Fatal("building with unknown station succeeded, want error")
		}
	})

	t.Run("ip_pair matches both directions only", func(t *testing.T) {
		f := buildFilter(t, "ip_pair", `{"a": "C1", "b": "10.0.1.5"}`)
		got := runFilter(t, f, pkts)
		if len(got) != 2 {
			t.Fatalf("kept %d packets, want 2", len(got))
		}
	})

	t.Run("sample keeps one in N", func(t *testing.T) {
		f := buildFilter(t, "sample", `{"every": 2}`)
		got := runFilter(t, f, pkts)
		if len(got) != 2 {
			t.Fatalf("kept %d of %d packets at every=2, want 2", len(got), len(pkts))
		}
		// Deterministic: the first packet of the stream is always kept.
		if got[0].IP.Src != pkts[0].IP.Src || got[0].IP.Dst != pkts[0].IP.Dst {
			t.Error("sample did not keep the first packet")
		}
	})

	t.Run("tee passes everything", func(t *testing.T) {
		tee := &TeeFilter{}
		in := make(chan Msg, 1)
		in <- Msg{Pkts: pkts}
		close(in)
		var out []pcap.Packet
		if err := tee.Run(context.Background(), in, func(m Msg) { out = append(out, m.Pkts...) }); err != nil {
			t.Fatal(err)
		}
		if len(out) != len(pkts) {
			t.Fatalf("tee passed %d packets, want %d", len(out), len(pkts))
		}
	})
}

// TestRunnerDrain interrupts a paced live pipeline mid-feed and
// requires a clean drain with a final snapshot published.
func TestRunnerDrain(t *testing.T) {
	doc := `{
	  "pipelines": [
	    {
	      "name": "live",
	      "segments": [
	        { "id": "src", "segment": "sim", "params": { "duration": "5m", "speed": 60, "seed": 9 } },
	        { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "snapshot": "200ms" } }
	      ]
	    }
	  ]
	}`
	cfg, err := Parse([]byte(doc), "drain.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(cfg, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := runner.Run(ctx); err != nil {
		t.Fatalf("drain returned error: %v", err)
	}
	seg := runner.Segment("live", "an").(*AnalyzerSegment)
	if p := seg.Engine().Final(); p.Packets == 0 {
		t.Error("drained pipeline published no final state")
	}
}

// BenchmarkGraphVsHandwired measures the segment runtime's overhead
// against the hand-wired engine on the same capture, for use while
// working on the runtime; the committed number is benchmark/'s
// pipeline.graph_overhead_ratio.
func BenchmarkGraphVsHandwired(b *testing.B) {
	cfg := scadasim.DefaultConfig(topology.Y1, 11)
	cfg.Duration = 30 * time.Second
	sim, err := scadasim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "capture.pcap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.WritePCAP(f); err != nil {
		b.Fatal(err)
	}
	f.Close()

	b.Run("handwired", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			src, err := stream.NewPCAPSource(f)
			if err != nil {
				b.Fatal(err)
			}
			// One full pre-refactor profiler invocation: name-map
			// construction included, like the graph op's runner
			// construction includes it.
			names := core.NamesFromTopology(topology.Build())
			e := stream.New(stream.Config{Workers: 1, ClusterK: 5, ClusterSeed: 1202, Names: names})
			if err := e.Run(context.Background(), src); err != nil {
				b.Fatal(err)
			}
			// Match the graph path's product: the final clustered
			// profile, which the analyzer segment publishes on drain.
			e.Profile()
			f.Close()
		}
	})
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Workers: 1, Names: true})
			runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: func(string, ...any) {}})
			if err != nil {
				b.Fatal(err)
			}
			if err := runner.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// zeros is an endless all-zero body for the oversize-post case.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestProbeInputPartials drives the probe input's /partial endpoint:
// the shared stream.ProbeSet's reject paths surface with the pipeline's
// status codes, and an accepted post is merged into the snapshot the
// input emits downstream.
func TestProbeInputPartials(t *testing.T) {
	cfg, err := Parse([]byte(`{"pipelines": [{"name": "fleet", "segments": [
	  { "id": "src", "segment": "probe" },
	  { "id": "latest", "segment": "snapshot_http", "from": ["src"] }
	]}]}`), "probe.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(cfg, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	partial := runner.Endpoints()["/pipelines/fleet/src/partial"]
	if partial == nil {
		t.Fatal("probe input mounted no /partial endpoint")
	}
	post := func(method, query string, body io.Reader) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		partial.ServeHTTP(rr, httptest.NewRequest(method, "/pipelines/fleet/src/partial"+query, body))
		return rr
	}

	unlabeled := drift.NewProfile("", "", core.Partial{}, time.Unix(0, 0)).Encode()
	rejects := []struct {
		name     string
		method   string
		body     io.Reader
		wantCode int
		wantBody string
	}{
		{"wrong method", http.MethodGet, nil, http.StatusMethodNotAllowed, "POST"},
		{"oversize body", http.MethodPost, io.LimitReader(zeros{}, stream.MaxPartialBytes+1), http.StatusRequestEntityTooLarge, "exceeds"},
		{"bad codec", http.MethodPost, strings.NewReader("not a profile"), http.StatusBadRequest, ""},
		{"missing label", http.MethodPost, bytes.NewReader(unlabeled), http.StatusBadRequest, "probe label"},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			rr := post(tc.method, "", tc.body)
			if rr.Code != tc.wantCode || !strings.Contains(rr.Body.String(), tc.wantBody) {
				t.Errorf("code %d body %.120q, want %d containing %q", rr.Code, rr.Body.String(), tc.wantCode, tc.wantBody)
			}
		})
	}

	// The label may come from ?probe= instead of the profile.
	p := core.Partial{Packets: 42}
	rr := post(http.MethodPost, "?probe=siteA", bytes.NewReader(drift.NewProfile("", "", p, time.Unix(0, 0)).Encode()))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"probe":"siteA","probes":1,"version":1`) {
		t.Fatalf("accepted post: code %d body %q", rr.Code, rr.Body.String())
	}

	// Draining the graph emits the merged fleet state downstream; no
	// rejected post may have reached it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runner.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	runner.Endpoints()["/pipelines/fleet/latest"].ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/pipelines/fleet/latest", nil))
	var prof stream.Profile
	if err := json.Unmarshal(rr.Body.Bytes(), &prof); err != nil {
		t.Fatalf("latest snapshot: %v (code %d body %.120q)", err, rr.Code, rr.Body.String())
	}
	if prof.Packets != 42 || prof.Workers != 1 || prof.Seq != 1 {
		t.Errorf("merged snapshot packets=%d workers=%d seq=%d, want 42/1/1", prof.Packets, prof.Workers, prof.Seq)
	}
}
