package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for name, m := range ms {
		out[name] = m.Unit
	}
	return out
}

// Every workload, at smoke scale: all paths run, every output check
// passes, and the metrics printed are exactly the ones BENCHMARK.json
// declares, with its units.
func TestSmoke(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if decl.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program sized for %d", decl.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		wantLayers[m.Name] = m.Unit
	}

	for _, w := range workloads {
		// The traced run costs twice the untraced one; one workload (the
		// one that exercises every codec) is enough to pin the layer list.
		for _, trace := range []int{0, 1} {
			if trace == 1 && w.Name != "offline_pmu_mix" {
				continue
			}
			w, trace := w, trace
			t.Run(w.Name+map[int]string{0: "", 1: "/traced"}[trace], func(t *testing.T) {
				t.Parallel()
				root := t.TempDir()
				rf, err := runOnce(options{root: root, workload: w.Name, seed: 1, seconds: runSeconds, trace: trace, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if !rf.Result.Correct || rf.Result.Failed != 0 || rf.Result.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d problems=%v", rf.Result.Correct, rf.Result.Failed, rf.Result.Attempted, rf.Problems)
				}
				want := wantE2E
				if trace == 1 {
					want = wantLayers
				}
				if got := units(rf.Result.Metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("metrics and units differ from BENCHMARK.json:\n got %v\nwant %v", sortedKeys(got), sortedKeys(want))
				}
				if rf.Schema != resultSchema || rf.Provenance["go_version"] == "" {
					t.Errorf("result lacks schema/provenance: %+v", rf.Provenance)
				}
				files, _ := filepath.Glob(filepath.Join(root, "results", "bench", "*.json"))
				sort.Strings(files)
				if wantFiles := 1 + trace; len(files) != wantFiles {
					t.Errorf("wrote %v, want %d result file(s)", files, wantFiles)
				}
				if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", "*")); len(left) != 0 {
					t.Errorf("scratch files left behind: %v", left)
				}
			})
		}
	}
}

// The seed moves values, never shapes: two seeds give the same packet
// count and per-dialect frame counts within the tolerance, and the mix
// capture holds the C37.118 and Modbus shares its workload is for.
func TestShapesAreSeedInvariant(t *testing.T) {
	dir := t.TempDir()
	spec := smokeScale(workloads[1]).Capture
	var got [2]*capture
	for i := range got {
		c, err := generate(spec, int64(3+4*i), filepath.Join(dir, "c.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		got[i] = c
	}
	a, b := got[0], got[1]
	if bytesEqual(a.data, b.data) {
		t.Error("two seeds produced the same bytes: the seed does nothing")
	}
	a.spec.Want = b.got
	if err := a.checkShape(); err != nil {
		t.Errorf("seeds 3 and 7 differ in shape: %v", err)
	}
	if c37, mb := float64(a.got.C37Frames)/float64(a.packets()), float64(a.got.ModbusFrames)/float64(a.packets()); c37 < 0.30 || mb < 0.15 {
		t.Errorf("mix capture is %.0f%% C37.118 and %.0f%% Modbus, want at least 30%% and 15%%", 100*c37, 100*mb)
	}
	a.spec.Want.ModbusFrames = a.got.ModbusFrames * 2
	if a.checkShape() == nil {
		t.Error("a capture with half the Modbus frames passed the shape check")
	}
}

func bytesEqual(a, b []byte) bool { return string(a) == string(b) }
