package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"uncharted/benchmark/refkernel"
)

// smokeScale shrinks a workload's capture so `go test` can push every
// path through in about a second. Shape constants do not apply to the
// shrunken capture.
func smokeScale(w workload) workload {
	w.Capture.Duration = 2 * time.Minute
	w.Capture.SimPackets = 7000
	w.Capture.Want = shape{}
	return w
}

// smokePlan is the work of a smoke run.
var smokePlan = plan{Passes: 2, LivePackets: 7000, ServeBlocks: 2, SetupRepeats: 1, LedgerRepeats: 1, VariantRounds: 1, HTTPRequests: 50}

// printShapes generates every capture kind for seeds 1..n and prints
// what came out, so seed-invariance can be seen rather than believed.
func printShapes(root string, n int) error {
	dir, err := scratchDir(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println("| capture | seed | generated | packets | bytes | c37118 frames | modbus frames | within tolerance |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, spec := range []captureSpec{y1Capture, pmuMixCapture} {
		for seed := int64(1); seed <= int64(n); seed++ {
			c, err := generate(spec, seed, filepath.Join(dir, "shape.pcap"))
			if err != nil {
				return err
			}
			ok := "yes"
			if err := c.checkShape(); err != nil {
				ok = err.Error()
			}
			fmt.Printf("| %s | %d | %d | %d | %d | %d | %d | %s |\n", spec.Kind, seed, c.generated, c.packets(), c.got.Bytes, c.got.C37Frames, c.got.ModbusFrames, ok)
		}
	}
	return nil
}

// printCalibration measures ref_nominal_cpu_s: the median CPU of the
// reference kernel over each capture kind, n runs each, interleaved
// with nothing. The builder freezes the printed medians in
// workloads.go.
func printCalibration(root string, n int) error {
	dir, err := scratchDir(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, spec := range []captureSpec{y1Capture, pmuMixCapture} {
		c, err := generate(spec, 1, filepath.Join(dir, "cal.pcap"))
		if err != nil {
			return err
		}
		for _, workers := range []int{engineWorkers, 1} {
			k := refkernel.New(c.data, workers, 0)
			cpu := make([]float64, n)
			for i := range cpu {
				_, d := k.Run()
				cpu[i] = d.Seconds()
			}
			fmt.Printf("%s workers=%d records=%d: median %.6f s  p10 %.6f  p90 %.6f\n",
				spec.Kind, workers, k.Records(), median(cpu), quantile(cpu, 0.1), quantile(cpu, 0.9))
		}
	}
	return nil
}

// noiseLimit is how far one end-to-end metric may range over a -noise
// series, (max−min)/median, before the series fails: counts must all
// but repeat; times may scatter as far as this VM makes them (about
// three interquartile ranges of the spreads recorded in README.md).
func noiseLimit(name string) float64 {
	switch name {
	case "alloc_bytes_per_byte", "allocs_per_kpkt", "historian_bytes_per_sample":
		return 0.03
	case "retained_heap_mb":
		return 0.06
	case "publish_lag_ms_p50":
		return 0.35
	case "setup_s":
		return 0.60
	}
	return 0.25
}

// runNoise runs every workload n times with seeds 1..n, alternating
// the workload order between rounds, and prints each metric's spread.
// It fails when a metric ranges beyond its limit.
func runNoise(o options, n int) error {
	values := map[string]map[string][]float64{} // workload → metric → runs
	order := workloadNames()
	for round := 0; round < n; round++ {
		for i := range order {
			name := order[i]
			if round%2 == 1 {
				name = order[len(order)-1-i]
			}
			ro := o
			ro.workload, ro.seed = name, int64(round+1)
			rf, err := runOnce(ro)
			if err != nil {
				return err
			}
			if !rf.Result.Correct || rf.Result.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d %v", name, ro.seed, rf.Result.Correct, rf.Result.Failed, rf.Problems)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range rf.Result.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
			values[name]["attempted"] = append(values[name]["attempted"], float64(rf.Result.Attempted))
			fmt.Fprintf(os.Stderr, "round %d %s done\n", round+1, name)
		}
	}
	fmt.Println("| workload | metric | min | median | max | IQR/median | (max−min)/median |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var over []string
	for _, name := range order {
		for _, m := range sortedKeys(values[name]) {
			xs := values[name][m]
			med := median(xs)
			lo, hi := slices.Min(xs), slices.Max(xs)
			iqr := (quantile(xs, 0.75) - quantile(xs, 0.25)) / med
			rng := (hi - lo) / med
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.2f %% | %.2f %% |\n", name, m, lo, med, hi, 100*iqr, 100*rng)
			if m != "attempted" && rng > noiseLimit(m) || m == "attempted" && rng != 0 {
				over = append(over, fmt.Sprintf("%s/%s ranges %.1f %%", name, m, 100*rng))
			}
		}
	}
	if over != nil {
		return fmt.Errorf("noise over limit: %v", over)
	}
	return nil
}

// finite reports whether every metric is a usable number.
func finite(ms map[string]metric) error {
	for _, name := range sortedKeys(ms) {
		if v := ms[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}
