package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// writeTestCapture synthesizes a short era-1 capture.
func writeTestCapture(t *testing.T, dur time.Duration, seed int64) string {
	t.Helper()
	return writeEraCapture(t, topology.Y1, dur, seed)
}

// writeEraCapture synthesizes a capture of either campaign.
func writeEraCapture(t *testing.T, year topology.Year, dur time.Duration, seed int64) string {
	t.Helper()
	cfg := scadasim.DefaultConfig(year, seed)
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

// writeAttackCapture synthesizes a short era-1 capture with an attack
// injected mid-feed.
func writeAttackCapture(t *testing.T, attack string, seed int64) string {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = 20 * time.Second
	tr, _, _, err := simulate(cfg, attack)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), attack+".pcap")
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

// TestProfilerOneShardAnalyzer pins what the profiler's one-shard run
// adds: the engine's shard analyzer, read after the drain, is the
// analyzer an offline ReadPCAP of the same capture builds — same
// Partial, same recovered timings, same trained whitelist finding the
// same deviations in an attack capture — and a sharded run has none.
func TestProfilerOneShardAnalyzer(t *testing.T) {
	offline := func(path string) *core.Analyzer {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		a := core.NewAnalyzer(core.NamesFromTopology(topology.Build()))
		if err := a.ReadPCAP(f); err != nil {
			t.Fatal(err)
		}
		return a
	}
	graph := func(path string, workers int) *stream.Engine {
		t.Helper()
		cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Workers: workers, Names: true})
		runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.Analyzer().Engine()
		if eng.Analyzer() != nil {
			t.Fatal("shard analyzer handed out before Run returned")
		}
		if err := runner.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	clean := writeTestCapture(t, time.Minute, 11) // 20 samples of a 2 s cycle and to spare
	want, got := offline(clean), graph(clean, 1).Analyzer()
	if got == nil {
		t.Fatal("one-shard run has no whole-run analyzer")
	}
	if wp := want.Partial(); wp.Packets == 0 || !reflect.DeepEqual(wp, got.Partial()) {
		t.Errorf("one-shard analyzer's Partial differs from offline ReadPCAP's (%d packets offline)", wp.Packets)
	}
	if wt := want.StationTimings(20); len(wt) == 0 || !reflect.DeepEqual(wt, got.StationTimings(20)) {
		t.Errorf("one-shard analyzer's StationTimings differ from offline ReadPCAP's (%d stations offline)", len(wt))
	}

	wantBase, err := ids.Train(want)
	if err != nil {
		t.Fatal(err)
	}
	gotBase, err := ids.Train(got)
	if err != nil {
		t.Fatal(err)
	}
	attack := writeAttackCapture(t, "recon", 11)
	wantAlerts, gotAlerts := wantBase.Scan(offline(attack)), gotBase.Scan(graph(attack, 1).Analyzer())
	if len(wantAlerts) == 0 || !reflect.DeepEqual(wantAlerts, gotAlerts) {
		t.Errorf("scan of the attack capture: %d alerts offline, %d through the graph; want the same, non-empty list", len(wantAlerts), len(gotAlerts))
	}

	if graph(clean, 4).Analyzer() != nil {
		t.Error("a 4-shard run handed out a whole-run analyzer: timing and training would read one shard's share")
	}
}

// TestLiveGraphDetectsAttacks: iec104live -attack is the declared sim →
// {an, ids} graph — each scenario raises its alert through the ids
// segment — and the extra consumer changes how the feed reaches the
// analyzer (inline edge instead of a handed-off source), not what the
// analyzer concludes.
func TestLiveGraphDetectsAttacks(t *testing.T) {
	for attack, kind := range map[string]ids.AlertKind{
		"recon":    ids.AlertNewEndpoint,
		"breaker":  ids.AlertUnknownPoint,
		"setpoint": ids.AlertNewToken,
	} {
		t.Run(attack, func(t *testing.T) {
			cfg, hooks := LiveGraph(LivePreset{Year: 1, Seed: 1, Duration: 30 * time.Second, Workers: 2, Attack: attack})
			critical := 0
			hooks["live/ids"] = func(al ids.Alert) { // called from the ids segment's goroutine only
				if al.Kind == kind && al.Severity == 3 {
					critical++
				}
			}
			runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if critical == 0 {
				t.Errorf("no critical %s alert reached the hook", kind)
			}
			if n := runner.Segment("live", "ids").(*IDSSegment).Alerts(); n < int64(critical) {
				t.Errorf("IDSSegment.Alerts() = %d, hook saw %d critical ones", n, critical)
			}
		})
	}

	t.Run("clean feed, inline vs handoff", func(t *testing.T) {
		run := func(detector bool) (core.Partial, *stream.Profile) {
			cfg, hooks := LiveGraph(LivePreset{Year: 1, Seed: 3, Duration: 20 * time.Second, Workers: 2})
			if detector {
				live := &cfg.Pipelines[0]
				live.Nodes = append(live.Nodes, presetNode("ids", "ids", []string{"sim"}, map[string]any{"train_year": 1, "train_duration": 20 * time.Second}))
			}
			runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if handedOff := runner.status()[0].Segments[0].MsgsOut == 1; handedOff == detector {
				t.Fatalf("detector=%v: source handed off = %v", detector, handedOff)
			}
			eng := runner.Analyzer().Engine()
			return eng.Final(), eng.Profile()
		}
		wantPartial, wantProfile := run(false)
		gotPartial, gotProfile := run(true)
		if wantPartial.Packets == 0 || !reflect.DeepEqual(wantPartial, gotPartial) {
			t.Errorf("final state differs with the detector attached: %d vs %d packets", gotPartial.Packets, wantPartial.Packets)
		}
		if !reflect.DeepEqual(wantProfile, gotProfile) {
			t.Error("final profile differs with the detector attached")
		}
	})
}

// TestProfilerHandoffEquivalence pins the two ways a capture reaches
// the analyzer against each other: the preset's src → an topology hands
// the file to the engine whole (1 reader, then 4 segment readers), and
// the same graph with a keep-everything filter in between decodes inline —
// all three produce exactly the same state.
func TestProfilerHandoffEquivalence(t *testing.T) {
	path := writeTestCapture(t, 20*time.Second, 13)

	run := func(readers int, inline bool) core.Partial {
		cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Workers: 2, Readers: readers, Names: true})
		if inline {
			nodes := cfg.Pipelines[0].Nodes
			nodes[1].From = []string{"all"}
			cfg.Pipelines[0].Nodes = append(nodes, presetNode("all", "sample", []string{"src"}, map[string]any{"every": 1}))
		}
		runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if handedOff := runner.status()[0].Segments[0].MsgsOut == 1; handedOff == inline {
			t.Fatalf("readers=%d inline=%v: source handed off = %v", readers, inline, handedOff)
		}
		return runner.Analyzer().Engine().Final()
	}

	want := run(1, true)
	if want.Packets == 0 {
		t.Fatal("inline graph analyzed zero packets")
	}
	for _, readers := range []int{1, 4} {
		if got := run(readers, false); !reflect.DeepEqual(want, got) {
			t.Errorf("handoff path at %d readers differs from inline path: packets %d vs %d, asdus %d vs %d",
				readers, got.Packets, want.Packets, got.TotalASDUs, want.TotalASDUs)
		}
	}
}

// TestHandoffByTopology pins the one decision the runner takes from the
// graph's shape: an input that reads one source, wired to nothing but
// one analyzer, gives the source away (a single Src message, the
// engine's own readers); every other shape decodes inline.
func TestHandoffByTopology(t *testing.T) {
	path := writeTestCapture(t, 5*time.Second, 5)
	ref := core.NewAnalyzer(nil)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ReadPCAP(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	total := ref.Partial().Packets

	// A capture directory: two copies of the file, read back to back.
	dir := t.TempDir()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.pcap", "b.pcap"} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name     string
		segments string
		handoff  bool
		readers  int   // engine readers of analyzer "an"
		packets  []int // final packets per analyzer, in declaration order
	}{
		{"single analyzer consumer hands off", fmt.Sprintf(`
		  { "id": "src", "segment": "pcap", "params": { "path": %q } },
		  { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "workers": 2, "readers": 3 } }`, path),
			true, 3, []int{total}},
		{"fan-out decodes inline", fmt.Sprintf(`
		  { "id": "src", "segment": "pcap", "params": { "path": %q } },
		  { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "readers": 3 } },
		  { "id": "a2", "segment": "analyzer", "from": ["src"] }`, path),
			false, 1, []int{total, total}},
		{"filter in between decodes inline", fmt.Sprintf(`
		  { "id": "src", "segment": "pcap", "params": { "path": %q } },
		  { "id": "t", "segment": "sample", "from": ["src"], "params": { "every": 1 } },
		  { "id": "an", "segment": "analyzer", "from": ["t"], "params": { "readers": 3 } }`, path),
			false, 1, []int{total}},
		{"directory decodes inline", fmt.Sprintf(`
		  { "id": "src", "segment": "pcap", "params": { "path": %q } },
		  { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "readers": 3 } }`, dir),
			false, 1, []int{2 * total}},
		{"paced file hands off to one reader", fmt.Sprintf(`
		  { "id": "src", "segment": "pcap", "params": { "path": %q, "speed": 1e6 } },
		  { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "readers": 3 } }`, path),
			true, 1, []int{total}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := Parse([]byte(`{"pipelines": [{"name": "p", "segments": [`+tc.segments+`]}]}`), "handoff.jsonc")
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewRunner(cfg, Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, n := range cfg.Pipelines[0].Nodes {
				if a, ok := runner.Segment("p", n.ID).(*AnalyzerSegment); ok {
					got = append(got, a.Engine().Final().Packets)
				}
			}
			if !reflect.DeepEqual(got, tc.packets) {
				t.Errorf("analyzers saw %v packets, want %v", got, tc.packets)
			}
			if n := len(runner.Analyzer().Engine().Status().Readers); n != tc.readers {
				t.Errorf("engine ran %d readers, want %d", n, tc.readers)
			}
			// Both ends of a handed-off edge report the engine's count; an
			// inline edge counts the packets that rode it.
			var src, an SegmentStatus
			for _, s := range runner.status()[0].Segments {
				switch s.ID {
				case "src":
					src = s
				case "an":
					an = s
				}
			}
			if handedOff := src.MsgsOut == 1; handedOff != tc.handoff {
				t.Errorf("input emitted %d messages: handoff = %v, want %v", src.MsgsOut, handedOff, tc.handoff)
			}
			if src.PktsOut != int64(tc.packets[0]) || an.PktsIn != int64(tc.packets[0]) {
				t.Errorf("edge reports %d packets out, %d in; want %d", src.PktsOut, an.PktsIn, tc.packets[0])
			}
		})
	}

	// A damaged capture in a directory fails the run, and the error
	// names it wherever it sorts.
	for _, empty := range []string{"z.pcap", "0.pcap"} {
		t.Run("directory names its damaged "+empty, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "y1.pcap"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(dir, empty)
			if err := os.WriteFile(bad, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg, err := Parse([]byte(fmt.Sprintf(`{"pipelines": [{"name": "p", "segments": [
			  { "id": "src", "segment": "pcap", "params": { "path": %q } },
			  { "id": "an", "segment": "analyzer", "from": ["src"] }
			]}]}`, dir)), "handoff.jsonc")
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewRunner(cfg, Options{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.Run(context.Background()); !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(fmt.Sprint(err), bad) {
				t.Fatalf("Run error = %v, want one naming %s and wrapping %v", err, bad, io.ErrUnexpectedEOF)
			}
		})
	}

	t.Run("readers on a pcap input is an unknown param", func(t *testing.T) {
		_, err := Parse([]byte(fmt.Sprintf(`{"pipelines": [{"name": "p", "segments": [
		  { "id": "src", "segment": "pcap", "params": { "path": %q, "readers": 2 } },
		  { "id": "an", "segment": "analyzer", "from": ["src"] }
		]}]}`, path)), "handoff.jsonc")
		if err == nil || !strings.Contains(err.Error(), `handoff.jsonc:2`) || !strings.Contains(err.Error(), `unknown param "readers"`) {
			t.Fatalf("Parse error = %v, want handoff.jsonc:2 ... unknown param \"readers\"", err)
		}
	})
}

// TestHandoffDrains: a handed-off source runs under the runner's
// context, so canceling it is a drain — Run returns promptly with a nil
// error and the final profile published — both while a followed capture
// sits at its write frontier and while a finished one is still being
// read.
func TestHandoffDrains(t *testing.T) {
	path := writeTestCapture(t, 10*time.Second, 17)

	t.Run("follow at its frontier", func(t *testing.T) {
		cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Follow: true, Workers: 2, SnapshotEvery: 20 * time.Millisecond})
		runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.Analyzer().Engine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- runner.Run(ctx) }()
		// The frontier is reached once a snapshot stops growing.
		for last, deadline := -1, time.Now().Add(10*time.Second); ; {
			if time.Now().After(deadline) {
				t.Fatal("followed capture never reached its frontier")
			}
			time.Sleep(50 * time.Millisecond)
			if p := eng.Profile(); p != nil {
				if p.Packets > 0 && p.Packets == last {
					break
				}
				last = p.Packets
			}
		}
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain returned %v, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("canceled follow graph did not drain")
		}
		if prof := eng.Profile(); prof == nil || prof.Packets != eng.Final().Packets || prof.Packets == 0 {
			t.Errorf("final profile after drain: %+v", prof)
		}
	})

	t.Run("finished capture mid-read", func(t *testing.T) {
		cfg, hooks := ProfilerGraph(ProfilerPreset{Path: path, Workers: 2, Readers: 2})
		runner, err := NewRunner(cfg, Options{Hooks: hooks, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		// Canceled before the first record: the earliest "mid-read" there
		// is, and the one that needs no timing.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := runner.Run(ctx); err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
		eng := runner.Analyzer().Engine()
		if eng.Profile() == nil {
			t.Fatal("no final profile published after the drain")
		}
		if got := eng.Final().Packets; got != 0 {
			t.Errorf("canceled run still read %d packets: the source ignored the runner's context", got)
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
	        { "id": "an", "segment": "analyzer", "from": ["src"], "params": { "workers": 2 } }
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
	if got := runner.status(); len(got) != 2 || got[0].Name != "p1" || got[1].Name != "p2" {
		t.Fatalf("status() lists %d pipelines, want [p1 p2]", len(got))
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
	for _, path := range []string{"/statusz", "/pipelines/p1/an/profile", "/pipelines/p2/an/profile", "/pipelines/p2/statusz"} {
		if _, ok := eps[path]; !ok {
			t.Errorf("endpoint %s missing (have %d endpoints)", path, len(eps))
		}
	}

	// Status reflects completion.
	for _, st := range runner.status() {
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

// openUnder lists the files under dir this process holds open, read
// from /proc/self/fd; the test skips where that does not exist.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestNewRunnerClosesBuiltSegmentsOnFailure: a segment that fails to
// build aborts the runner, and every segment built before it is closed
// — here pipeline a's historian, whose directory one process may have
// open at a time — when pipeline b's analyzer names a missing baseline.
func TestNewRunnerClosesBuiltSegmentsOnFailure(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "hist")
	cfg, err := Parse([]byte(fmt.Sprintf(`{"pipelines": [
	  {"name": "a", "segments": [
	    {"id": "src", "segment": "sim", "params": {"duration": "5s"}},
	    {"id": "an", "segment": "analyzer", "from": ["src"], "params": {"historian": %q}}
	  ]},
	  {"name": "b", "segments": [
	    {"id": "src", "segment": "sim", "params": {"duration": "5s"}},
	    {"id": "an", "segment": "analyzer", "from": ["src"], "params": {"baseline": %q}}
	  ]}
	]}`, hist, filepath.Join(dir, "missing.prof"))), "leak.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewRunner(cfg, Options{Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), "pipeline b segment an (analyzer)") {
		t.Fatalf("NewRunner = %v, %v; want pipeline b's analyzer to fail", runner, err)
	}
	if open := openUnder(t, dir); len(open) > 0 {
		t.Errorf("failed NewRunner left %d files open: %v", len(open), open)
	}
}
