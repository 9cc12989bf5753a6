package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchFiles are the benchmark JSON files runBench maintains, in the
// order they are written.
var benchFiles = []string{
	"BENCH_core.json",
	"BENCH_stream.json",
	"BENCH_historian.json",
	"BENCH_drift.json",
	"BENCH_protocol.json",
}

// loadBenchFile reads a previously written benchmark file into a
// name-keyed map for delta reporting.
func loadBenchFile(path string) (map[string]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []BenchResult
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]BenchResult, len(rows))
	for _, r := range rows {
		out[r.Name] = r
	}
	return out, nil
}

// printDelta renders the old-vs-new comparison for one benchmark file.
// A missing baseline prints nothing (first run, or -baseline ""); rows
// without a baseline counterpart are marked new.
func printDelta(w io.Writer, title string, old map[string]BenchResult, rows []BenchResult) {
	if len(old) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s vs baseline (old -> new):\n", title)
	fmt.Fprintf(w, "  %-26s %-30s %-28s %s\n", "benchmark", "ns/op", "MB/s", "allocs/op")
	for _, r := range rows {
		o, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(w, "  %-26s (no baseline row)\n", r.Name)
			continue
		}
		fmt.Fprintf(w, "  %-26s %-30s %-28s %s\n", r.Name,
			deltaCell(o.NsPerOp, r.NsPerOp),
			deltaCell(o.MBPerSec, r.MBPerSec),
			deltaCell(float64(o.AllocsPerOp), float64(r.AllocsPerOp)))
	}
}

// deltaCell formats "old -> new (+x.x%)"; a zero pair (e.g. MB/s on a
// row with no byte throughput) collapses to a dash.
func deltaCell(old, new float64) string {
	if old == 0 && new == 0 {
		return "-"
	}
	cell := fmtNum(old) + " -> " + fmtNum(new)
	if old != 0 {
		cell += fmt.Sprintf(" (%+.1f%%)", (new-old)/old*100)
	}
	return cell
}

// scalingWarnBelow is the 4-shard/1-shard throughput ratio under
// which printScaling flags the run. With the segmented N-reader ingest
// the parallel configuration is expected to actually pull ahead on a
// multi-core box, so the bar is 1.5x rather than break-even; a miss
// means the fan-out overhead (routing, queue handoff, merge) ate the
// parallelism — exactly what the flight recorder's stage spans and
// backpressure attribution exist to localise. (On a single-CPU runner
// the warning is informational: no ratio above 1.0 is reachable.)
const scalingWarnBelow = 1.5

// printScaling reports how engine throughput scales from 1 to 4
// shards using the MB/s columns of the BENCH_stream.json rows, and
// warns when the ratio is below scalingWarnBelow. The segmented
// engine_4shard_4reader row is reported against the same 1-shard base
// when present. Missing rows (or rows without throughput) print
// nothing.
func printScaling(w io.Writer, rows []BenchResult) {
	byName := make(map[string]BenchResult, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	one, four := byName["engine_1shard"], byName["engine_4shard"]
	if one.MBPerSec == 0 || four.MBPerSec == 0 {
		return
	}
	ratio := four.MBPerSec / one.MBPerSec
	fmt.Fprintf(w, "\nshard scaling: engine_4shard %.2f MB/s / engine_1shard %.2f MB/s = %.2fx\n",
		four.MBPerSec, one.MBPerSec, ratio)
	if seg := byName["engine_4shard_4reader"]; seg.MBPerSec > 0 {
		fmt.Fprintf(w, "segmented ingest: engine_4shard_4reader %.2f MB/s / engine_1shard %.2f MB/s = %.2fx\n",
			seg.MBPerSec, one.MBPerSec, seg.MBPerSec/one.MBPerSec)
	}
	if ratio < scalingWarnBelow {
		fmt.Fprintf(w, "WARNING: 4-shard scaling below %.1fx (%.2fx); profile the pipeline with -trace / /statusz to attribute the stall\n",
			scalingWarnBelow, ratio)
	}
}

// c37118DecodeAllocCeiling bounds allocs/op of the decode_c37118 row:
// one session, one configuration frame and 256 data frames per op, of
// which the data frames must contribute nothing. Unlike a throughput,
// an allocation count does not depend on the runner, so exceeding it
// fails the run instead of printing a warning.
const c37118DecodeAllocCeiling = 32

// checkAllocCeilings returns an error when a row exceeds its
// machine-independent allocs/op ceiling.
func checkAllocCeilings(rows []BenchResult) error {
	for _, r := range rows {
		if r.Name == "decode_c37118" && r.AllocsPerOp > c37118DecodeAllocCeiling {
			return fmt.Errorf("%s: %d allocs/op exceeds the ceiling of %d",
				r.Name, r.AllocsPerOp, c37118DecodeAllocCeiling)
		}
	}
	return nil
}

// fmtNum keeps big counts readable without scientific notation.
func fmtNum(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
