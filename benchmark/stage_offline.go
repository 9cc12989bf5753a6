package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"uncharted/benchmark/refkernel"
	"uncharted/internal/core"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// memDelta is the allocation a pass caused, read with
// runtime.ReadMemStats outside the timed span.
type memDelta struct {
	Bytes, Mallocs uint64
	GCs            uint32
}

func memNow() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memNow()
	return memDelta{Bytes: m1.TotalAlloc - m0.TotalAlloc, Mallocs: m1.Mallocs - m0.Mallocs, GCs: m1.NumGC - m0.NumGC}
}

// passResult is one end-to-end ingest of a capture.
type passResult struct {
	Wall, CPU time.Duration
	Mem       memDelta
	Engine    *stream.Engine
}

// discardLogf silences the runtime's operator log lines.
func discardLogf(string, ...any) {}

// graphPass profiles path exactly the way `profiler -workers 2
// -readers 2 [-proto auto]` does: the declared src→an graph, run to
// completion. The timed span is Run start to the final Profile being
// readable; graph construction (file open, segment build) sits
// outside it but inside the allocation window.
func graphPass(rec *spanRecorder, parent, pass int, path, protocols string) (passResult, error) {
	m0 := memNow()
	sp := rec.begin("pipeline.build", parent, pass)
	graph, hooks := pipeline.ProfilerGraph(pipeline.ProfilerPreset{
		Path: path, Workers: engineWorkers, Readers: engineReaders, Protocols: protocols,
	})
	runner, err := pipeline.NewRunner(graph, pipeline.Options{Logf: discardLogf, Hooks: hooks})
	rec.end(sp)
	if err != nil {
		return passResult{}, err
	}
	eng := runner.Segment("profiler", "an").(*pipeline.AnalyzerSegment).Engine()

	sp = rec.begin("pipeline.run", parent, pass)
	c0, t0 := refkernel.ProcessCPU(), time.Now()
	err = runner.Run(context.Background())
	prof := eng.Profile()
	wall, cpu := time.Since(t0), refkernel.ProcessCPU()-c0
	rec.end(sp)
	if err != nil {
		return passResult{}, err
	}
	if prof == nil {
		return passResult{}, fmt.Errorf("pass over %s published no profile", path)
	}
	return passResult{Wall: wall, CPU: cpu, Mem: memSince(m0), Engine: eng}, nil
}

// offlineStage is the paired-reference protocol over N graph passes.
type offlineStage struct {
	Wall, CPU []float64 // seconds per pass
	Ref       []float64 // reference CPU seconds, len(Wall)+1
	Mem       memDelta  // summed over the passes
	Last      *stream.Engine
	Failed    int // packets missing from a pass's final partial
}

func runOfflineStage(rc *runCtx, passes int) (*offlineStage, error) {
	st := &offlineStage{}
	root := rc.rec.begin("stage.offline", -1, 0)
	defer rc.rec.end(root)
	st.Ref = append(st.Ref, rc.refRun(rc.refPar))
	for i := 0; i < passes; i++ {
		rec := rc.recFor(i)
		sp := rec.begin("offline.pass", root, i)
		res, err := graphPass(rec, sp, i, rc.cap.path, rc.w.Protocols)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("offline pass %d: %w", i, err)
		}
		st.Ref = append(st.Ref, rc.refRun(rc.refPar))
		st.Wall = append(st.Wall, res.Wall.Seconds())
		st.CPU = append(st.CPU, res.CPU.Seconds())
		st.Mem.Bytes += res.Mem.Bytes
		st.Mem.Mallocs += res.Mem.Mallocs
		st.Mem.GCs += res.Mem.GCs
		st.Last = res.Engine
		if got := res.Engine.Final().Packets; got != rc.cap.packets() {
			st.Failed += abs(rc.cap.packets() - got)
		}
	}
	return st, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// newAnalyzer is a serial analyzer decoding the given protocol list —
// the reference every stage is checked against and the ledger's subject.
func newAnalyzer(protocols []string) (*core.Analyzer, error) {
	a := core.NewAnalyzer(nil)
	if err := a.EnableProtocolNames(protocols...); err != nil {
		return nil, err
	}
	return a, nil
}

// referencePartial is the independent answer the stages are checked
// against: the serial offline analyzer over the same bytes.
func referencePartial(data []byte, protocols []string) (core.Partial, error) {
	a, err := newAnalyzer(protocols)
	if err != nil {
		return core.Partial{}, err
	}
	if err := a.ReadPCAP(bytes.NewReader(data)); err != nil {
		return core.Partial{}, err
	}
	return core.MergePartials([]core.Partial{a.Partial()}), nil
}

// handWiredPartial runs the same two shards behind one sequential
// reader, without the graph runtime or the segment planner.
func handWiredPartial(data []byte, protocols []string) (core.Partial, error) {
	src, err := stream.NewPCAPSource(bytes.NewReader(data))
	if err != nil {
		return core.Partial{}, err
	}
	eng := stream.New(stream.Config{Workers: engineWorkers, Protocols: protocols, ClusterK: clusterK, ClusterSeed: clusterSeed})
	if err := eng.Run(context.Background(), src); err != nil {
		return core.Partial{}, err
	}
	return eng.Final(), nil
}

// diffPartials lists how got departs from want in the aggregates that
// are exact under any sharding: counts, window, flow taxonomy, type
// mix, per-endpoint frame tallies, chain shapes, physical digests (to
// float rounding) and per-dialect frames. (Which frame pins an endpoint's dialect depends
// on which shard sees it first, so strict-invalid tallies are not.)
func diffPartials(want, got core.Partial) []string {
	var d []string
	add := func(what string, w, g any) {
		if !reflect.DeepEqual(w, g) {
			d = append(d, fmt.Sprintf("%s: got %v want %v", what, g, w))
		}
	}
	add("packets", want.Packets, got.Packets)
	add("iec packets", want.IECPackets, got.IECPackets)
	add("parse errors", want.ParseErrors, got.ParseErrors)
	add("asdus", want.TotalASDUs, got.TotalASDUs)
	add("first", want.First.UnixNano(), got.First.UnixNano())
	add("last", want.Last.UnixNano(), got.Last.UnixNano())
	add("flows short", want.Flows.ShortLived, got.Flows.ShortLived)
	add("flows long", want.Flows.LongLived, got.Flows.LongLived)
	add("flows total", want.Flows.Total(), got.Flows.Total())
	add("type counts", want.TypeCounts, got.TypeCounts)
	add("other ports", want.OtherPorts, got.OtherPorts)
	frames := func(p core.Partial) map[string]int {
		m := make(map[string]int)
		for _, sc := range p.Compliance {
			m[sc.Name] = sc.Frames
		}
		return m
	}
	add("frames per endpoint", frames(want), frames(got))
	chains := func(p core.Partial) []string {
		var out []string
		for _, cc := range p.Chains {
			out = append(out, fmt.Sprintf("%s>%s/%v:%d/%d/%d", cc.Server, cc.Outstation, cc.Proto,
				cc.Chain.Nodes(), cc.Chain.Edges(), cc.Chain.TotalTokens()))
		}
		sort.Strings(out)
		return out
	}
	add("chains", chains(want), chains(got))
	add("features", len(want.Features), len(got.Features))
	add("physical series", len(want.Physical), len(got.Physical))
	if len(want.Physical) == len(got.Physical) {
		for i, w := range want.Physical {
			g := got.Physical[i]
			// A series fed from both shards merges its moments in another
			// association order, so the mean may differ in the last bits.
			if g.Key != w.Key || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max ||
				math.Abs(g.Mean-w.Mean) > 1e-9*math.Max(1, math.Abs(w.Mean)) {
				d = append(d, fmt.Sprintf("physical %v: got n=%d [%g,%g] mean %g want n=%d [%g,%g] mean %g",
					w.Key, g.Count, g.Min, g.Max, g.Mean, w.Count, w.Min, w.Max, w.Mean))
			}
		}
	}
	dialects := func(p core.Partial) []string {
		var out []string
		for _, ds := range p.Dialects {
			out = append(out, fmt.Sprintf("%v:%d/%d/%d", ds.Proto, ds.Frames, ds.ParseErrors, ds.Bytes))
		}
		return out
	}
	add("dialects", dialects(want), dialects(got))
	return d
}
