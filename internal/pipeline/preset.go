package pipeline

import (
	"encoding/json"
	"fmt"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/obs/trace"
)

// The presets are the single-analyzer commands as declared graphs: the
// profiler, iec104live and a control-room tenant's shorthand all
// construct the same input→analyzer pipeline a config file would,
// through SourceGraph, so every capability those front ends expose is
// reachable from a declared pipeline too — and the equivalence tests pin the
// profiles to be identical either way.

// presetNode builds one NodeConfig with marshalled params. Params values
// must be JSON-encodable; durations are emitted as nanosecond numbers,
// which the loader accepts.
func presetNode(id, kind string, from []string, params map[string]any) NodeConfig {
	nc := NodeConfig{ID: id, Kind: kind, From: from}
	if len(params) > 0 {
		raw, err := json.Marshal(params)
		if err != nil {
			// Preset params are program literals; a marshal failure is a
			// programming error.
			panic(fmt.Sprintf("pipeline: preset params: %v", err))
		}
		nc.Params = raw
	}
	return nc
}

// SourceGraph declares the graph every preset is: one packet input
// (segment inputID of kind inputKind) wired straight into one analyzer
// (segment "an") in a pipeline called name — the topology on which the
// input hands its source to the analyzer's engine.
func SourceGraph(name, inputID, inputKind string, input, analyzer map[string]any) *Config {
	return &Config{Pipelines: []PipelineConfig{{
		Name: name,
		Nodes: []NodeConfig{
			presetNode(inputID, inputKind, nil, input),
			presetNode("an", "analyzer", []string{inputID}, analyzer),
		},
	}}}
}

// ProfilerPreset parameterises the profiler command's graph.
type ProfilerPreset struct {
	// Path is the capture; Follow tails it instead of reading to EOF.
	Path   string
	Follow bool
	// Workers / Readers / SnapshotEvery / IdleTimeout / PointCap / Names
	// map to the analyzer params of the same name. SnapshotEvery only
	// applies when following (a finished capture publishes the final
	// profile only), matching the command; Readers only to a finished
	// capture (a growing file cannot be segment-planned).
	Workers       int
	Readers       int
	SnapshotEvery time.Duration
	IdleTimeout   time.Duration
	PointCap      int
	Names         bool
	// HistorianDir / BaselinePath / IDSBaselinePath arm the analyzer's
	// optional stages.
	HistorianDir    string
	BaselinePath    string
	IDSBaselinePath string
	// Protocols is the analyzer's protocol param: comma-separated extra
	// dialects, or "auto" (empty = IEC 104 only).
	Protocols string
	// Trace attaches the flight recorder.
	Trace *trace.Recorder
}

// ProfilerGraph returns the declared graph of the profiler — pipeline
// "profiler", segments "src" → "an" — plus the hooks to install via
// Options.Hooks.
func ProfilerGraph(p ProfilerPreset) (*Config, map[string]any) {
	srcKind, snapshot := "pcap", time.Duration(0)
	if p.Follow {
		srcKind, snapshot = "follow", p.SnapshotEvery
	}
	cfg := SourceGraph("profiler", "src", srcKind, map[string]any{"path": p.Path}, map[string]any{
		"workers":      p.Workers,
		"readers":      p.Readers,
		"snapshot":     snapshot,
		"idle_timeout": p.IdleTimeout,
		"cluster_k":    5,
		"cluster_seed": core.ClusterSeed,
		"point_cap":    p.PointCap,
		"names":        p.Names,
		"historian":    p.HistorianDir,
		"baseline":     p.BaselinePath,
		"ids_baseline": p.IDSBaselinePath,
		"protocol":     p.Protocols,
	})
	return cfg, map[string]any{"profiler/an": p.Trace}
}

// LivePreset parameterises the iec104live command's graph.
type LivePreset struct {
	// Year / Seed / Duration / Speed / Attack map to the sim input's
	// params of the same name. An Attack also arms the online detector.
	Year     int
	Seed     int
	Duration time.Duration
	Speed    float64
	Attack   string
	// Workers / SnapshotEvery / HistorianDir / PointCap map to the
	// analyzer params.
	Workers       int
	SnapshotEvery time.Duration
	HistorianDir  string
	PointCap      int
	// Trace attaches the flight recorder.
	Trace *trace.Recorder
}

// LiveGraph returns the declared graph of iec104live — pipeline "live",
// segments "sim" → "an" — plus the hooks to install via Options.Hooks.
// With an Attack the feed also fans out to segment "ids", an online
// detector trained on a clean run of the same grid and length (another
// seed, like training on yesterday's capture); its alert sink is the
// caller's "live/ids" hook.
func LiveGraph(p LivePreset) (*Config, map[string]any) {
	cfg := SourceGraph("live", "sim", "sim", map[string]any{
		"year":     p.Year,
		"seed":     p.Seed,
		"duration": p.Duration,
		"speed":    p.Speed,
		"attack":   p.Attack,
	}, map[string]any{
		"workers":      p.Workers,
		"snapshot":     p.SnapshotEvery,
		"cluster_k":    5,
		"cluster_seed": core.ClusterSeed,
		"point_cap":    p.PointCap,
		"historian":    p.HistorianDir,
	})
	if p.Attack != "" {
		live := &cfg.Pipelines[0]
		live.Nodes = append(live.Nodes, presetNode("ids", "ids", []string{"sim"}, map[string]any{
			"train_year":     p.Year,
			"train_seed":     p.Seed + 1000,
			"train_duration": p.Duration,
		}))
	}
	return cfg, map[string]any{"live/an": p.Trace}
}
