// Command benchmark is the repository's end-to-end benchmark: it
// generates a workload's inputs from a seed, drives the system through
// its public entry points, checks every output against an independent
// computation, and prints one JSON result line. README.md in this
// directory defines the workloads, metrics and measuring protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what lands in results/bench/: the result plus where it
// came from and how it was measured.
type resultFile struct {
	Schema     int            `json:"schema"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Traced     bool           `json:"traced"`
	Result     result         `json:"result"`
	Problems   []string       `json:"problems,omitempty"`
	Provenance map[string]any `json:"provenance"`
	Detail     map[string]any `json:"detail"`
}

// resultSchema tags result files so a comparer never mixes in the
// schema-less files an earlier, rejected benchmark left in results/.
const resultSchema = 2

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	var o options
	flag.StringVar(&o.root, "root", ".", "repository checkout root (results and scratch files go under it)")
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "run length the fixed work is scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs and work: exercises every path in about a second, measures nothing")
	noise := flag.Int("noise", 0, "run every workload N times, alternating order, and print each metric's spread")
	shapes := flag.Int("shapes", 0, "print the capture shapes for seeds 1..N and exit")
	calibrate := flag.Int("calibrate", 0, "print each workload's reference-kernel CPU over N runs and exit")
	flag.Parse()
	runtime.GOMAXPROCS(engineWorkers)

	var err error
	switch {
	case *shapes > 0:
		err = printShapes(o.root, *shapes)
	case *calibrate > 0:
		err = printCalibration(o.root, *calibrate)
	case *noise > 0:
		err = runNoise(o, *noise)
	default:
		var rf *resultFile
		if rf, err = runOnce(o); err == nil {
			line, _ := json.Marshal(rf.Result) // plain maps and numbers: cannot fail
			fmt.Println(string(line))
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// scratchDir makes the run's private directory inside the checkout.
func scratchDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// runOnce executes one run of one workload and writes its result file.
func runOnce(o options) (*resultFile, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if o.smoke {
		w = smokeScale(w)
	}
	dir, err := scratchDir(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	traced := o.trace != 0
	rc := &runCtx{w: w, seed: o.seed, plan: scaledPlan(w, o.seconds, traced), dir: dir, detail: map[string]any{}}
	if o.smoke {
		rc.plan = smokePlan
	}
	if traced {
		rc.rec = newSpanRecorder()
	}
	started := time.Now()
	if err := rc.prepare(); err != nil {
		return nil, fmt.Errorf("preparing %s seed %d: %w", w.Name, o.seed, err)
	}
	prepared := time.Since(started)
	j, err := rc.runJourney()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.Name, o.seed, err)
	}

	rf := &resultFile{
		Schema: resultSchema, Workload: w.Name, Seed: o.seed, Traced: traced,
		Problems: j.Problems, Detail: rc.detail,
		Result: result{
			Correct:   len(j.Problems) == 0,
			Attempted: j.attempted(rc.cap.packets()),
			Failed:    j.failures(),
		},
	}
	if traced {
		if rf.Result.Metrics, err = rc.layerMetrics(j); err != nil {
			return nil, fmt.Errorf("%s seed %d: layer probes: %w", w.Name, o.seed, err)
		}
	} else {
		rf.Result.Metrics = rc.endToEnd(j)
	}
	if err := finite(rf.Result.Metrics); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", w.Name, o.seed, err)
	}
	rc.detail["wall_s"] = map[string]float64{"prepare": prepared.Seconds(), "total": time.Since(started).Seconds()}
	rf.Provenance = provenance(o, rc)
	for _, p := range j.Problems {
		log.Printf("incorrect: %s", p)
	}
	return rf, writeResult(o, rf, rc)
}

// writeResult stores the result (and the trace of a traced run) under
// results/bench/ in the checkout.
func writeResult(o options, rf *resultFile, rc *runCtx) error {
	dir := filepath.Join(o.root, "results", "bench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", rf.Workload, rf.Seed)
	if rf.Traced {
		name += "-trace"
		if err := rc.rec.writeChromeTrace(filepath.Join(dir, name+".trace.json")); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644)
}

// endToEnd derives the ten user-visible metrics from an untraced run.
func (rc *runCtx) endToEnd(j *journey) map[string]metric {
	ref := rc.w.Ref
	off, live, srv := j.Offline, j.Live, j.Serve
	capMB := rc.cap.mb()

	passWall := normalised(off.Wall, off.Ref, ref.Par)
	passCPU := normalised(off.CPU, off.Ref, ref.Par)
	setup := make([]float64, len(j.SetupWall))
	for i := range setup {
		setup[i] = j.SetupWall[i] / j.SetupRef[i] * ref.Par
	}

	// Allocation is read on the ingest stage that carries the workload:
	// the live feed for live_historian, the offline passes elsewhere.
	mem, memBytes, memPkts := off.Mem, float64(len(off.Wall))*float64(len(rc.cap.data)), len(off.Wall)*rc.cap.packets()
	if rc.w.AllocOnLive {
		mem, memBytes, memPkts = live.Mem, float64(len(prefixImage(rc.cap.data, live.Packets))), live.Packets
	}

	liveFactor := driftFactor(live.Ref, ref.Ser)
	blockWall := normalised(srv.BlockWall, srv.Ref, ref.Ser)
	sum := srv.summary()
	missMS := sum.allMisses()
	missByEP := map[string]any{}
	for ep, m := range sum.MissMS {
		if len(m) > 0 {
			missByEP[endpointNames[ep]] = map[string]any{"n": len(m), "p50_ms": median(m)}
		}
	}
	rc.detail["serve"] = map[string]any{
		"requests": sum.Requests, "hits": sum.Hits, "misses": sum.Misses, "not_modified": sum.NotModified,
		"conditional": sum.Conditional, "over_limit": sum.Slow, "miss_by_endpoint": missByEP,
		"hit_us_p50": median(sum.HitUS), "all_ms_tail": tailOf(sum.AllMS),
	}
	serveFactor := driftFactor(srv.Ref, ref.Ser)

	rc.detail["raw"] = map[string]any{
		"setup_s":            j.SetupWall,
		"pass_wall_s":        off.Wall,
		"pass_cpu_s":         off.CPU,
		"block_wall_s":       srv.BlockWall,
		"block_cpu_s":        srv.BlockCPU[1:],
		"publish_lag_ms":     live.LagMS,
		"ingest_mb_s":        capMB / median(off.Wall),
		"publish_lag_ms_p50": median(live.LagMS),
		"serve_req_s":        float64(srv.PerBlock) / median(srv.BlockWall),
		"serve_miss_ms_p50":  median(missMS),
	}
	rc.detail["reference"] = map[string]any{
		"nominal_cpu_s":  ref,
		"offline_cpu_s":  off.Ref,
		"live_cpu_s":     live.Ref,
		"serve_cpu_s":    srv.Ref,
		"setup_cpu_s":    j.SetupRef,
		"live_factor":    liveFactor,
		"serve_factor":   serveFactor,
		"offline_factor": driftFactor(off.Ref, ref.Par),
	}
	rc.detail["samples"] = map[string]int{
		"passes": len(off.Wall), "snapshots": len(live.LagMS), "blocks": len(srv.BlockWall), "misses": len(missMS),
	}
	rc.detail["publish_lag_ms_tail"] = tailOf(live.LagMS)
	rc.detail["serve_miss_ms_tail"] = tailOf(missMS)
	rc.detail["generator_late_ms_tail"] = tailOf(live.LateMS)
	rc.detail["capture"] = map[string]any{"kind": rc.cap.spec.Kind, "packets": rc.cap.packets(), "shape": rc.cap.got}
	rc.detail["live"] = map[string]any{"alerts": live.Alerts, "historian_samples": live.HistSamples, "historian_bytes": live.HistBytes}

	return map[string]metric{
		"setup_s":                    {median(setup), "s"},
		"ingest_mb_s":                {capMB / passWall, "MB/s"},
		"cpu_s_per_gb":               {passCPU / (capMB / 1000), "s/GB"},
		"alloc_bytes_per_byte":       {float64(mem.Bytes) / memBytes, "B/B"},
		"allocs_per_kpkt":            {float64(mem.Mallocs) / float64(memPkts) * 1000, "1/kpkt"},
		"retained_heap_mb":           {float64(j.RetainedHeap) / 1e6, "MB"},
		"publish_lag_ms_p50":         {median(live.LagMS) * liveFactor, "ms"},
		"historian_bytes_per_sample": {float64(live.HistBytes) / float64(live.HistSamples), "B/sample"},
		"serve_req_s":                {float64(srv.PerBlock) / blockWall, "1/s"},
		"serve_miss_ms_p50":          {median(missMS) * serveFactor, "ms"},
	}
}

// provenance records what produced a result (ROADMAP aim 1a).
func provenance(o options, rc *runCtx) map[string]any {
	return map[string]any{
		"commit":       gitCommit(o.root),
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"storage":      "files under .bench_build/tmp in the checkout (page-cached)",
		"when":         time.Now().UTC().Format(time.RFC3339),
		"seconds":      o.seconds,
		"smoke":        o.smoke,
		"plan":         rc.plan,
		"workload":     rc.w,
		"ref_nominal":  rc.w.Ref,
		"live_rate":    liveRatePktS,
		"serve_limit":  serveLimitMS,
		"setup_repeat": rc.plan.SetupRepeats,
	}
}

// gitCommit reads HEAD straight from .git (the driver's checkout is
// not a repository; then the commit is unknown).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if data, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(data))
		}
		return "unknown"
	}
	return ref
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
