package service

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/historian"
	"uncharted/internal/pipeline"
)

// Duration is a TenantConfig period.
type Duration time.Duration

// SourceConfig says where a Go-built tenant's packets come from.
type SourceConfig struct {
	// Kind is "follow" (a growing capture, tailed) or "probe" (no local
	// ingest: the tenant only aggregates partials posted by remote
	// probes).
	Kind string
	// Path is a follow source's capture file.
	Path string
}

// TenantConfig builds a tenant in Go rather than in a config file: it
// compiles into the pipeline a config would declare for it (graph).
type TenantConfig struct {
	// Name routes the tenant: /v1/{name}/... It must be a clean path
	// element.
	Name   string
	Source SourceConfig
	// Workers is the tenant's shard count (default 1).
	Workers int
	// Snapshot is the rolling-profile period (default 1s).
	Snapshot Duration
	// ClusterK enables session clustering in published profiles.
	ClusterK int
	// Historian records the tenant's measurements into its own
	// namespace under Config.HistorianRoot and serves /v1/{name}/query.
	Historian bool
	// BaselinePath arms live drift detection against a stored profile
	// and serves /v1/{name}/drift.
	BaselinePath string
}

// Config parameterises the whole control-room service: the daemon's
// config document.
type Config struct {
	// Listen is the HTTP address (cmd/unchartedd's -addr overrides).
	Listen string `json:"listen,omitempty"`
	// CacheEntries caps the snapshot/query response cache (default
	// 4096 entries; 0 uses the default, negative disables caching).
	CacheEntries int `json:"cache_entries,omitempty"`
	// Pipelines declares segment graphs in the pipeline package's
	// vocabulary; each is hosted as the tenant of its name, and one with
	// no segments is a probe-only tenant.
	Pipelines []pipeline.PipelineConfig `json:"pipelines,omitempty"`
	// Tenants are tenants built in Go, hosted after the pipelines;
	// HistorianRoot holds their historian namespaces. Neither is a
	// config key.
	Tenants       []TenantConfig `json:"-"`
	HistorianRoot string         `json:"-"`
}

// LoadConfig reads a service config file; see ParseConfig.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return ParseConfig(data, path)
}

// ParseConfig decodes a service config document — JSONC, every key
// known (pipeline.Decode) — and graph-checks every pipeline without
// building a segment. All failures are reported together as
// pipeline.ConfigErrors naming file and line.
func ParseConfig(data []byte, file string) (Config, error) {
	var cfg Config
	lines, err := pipeline.Decode(data, file, &cfg)
	if err == nil {
		err = cfg.check(file, lines)
	}
	if err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// check graph-checks every tenant's pipeline, locating failures in
// file by lines (nil for a config built in Go).
func (c Config) check(file string, lines pipeline.Lines) error {
	graph, err := c.graph()
	return errors.Join(err, graph.Check(file, lines))
}

// graph is the one graph the service hosts, one pipeline per tenant:
// the declared pipelines, then the Go-built tenants compiled.
func (c Config) graph() (*pipeline.Config, error) {
	graph := &pipeline.Config{Pipelines: slices.Clone(c.Pipelines)}
	var errs []error
	for _, tc := range c.Tenants {
		pc, err := tc.graph(c.HistorianRoot)
		if err != nil {
			errs = append(errs, fmt.Errorf("tenant %q: %w", tc.Name, err))
			continue
		}
		graph.Pipelines = append(graph.Pipelines, pc)
	}
	return graph, errors.Join(errs...)
}

// graph compiles the tenant into the pipeline of its name: "src"
// (follow) → "an", with every analyzer param written out, or an empty,
// probe-only pipeline.
func (tc TenantConfig) graph(historianRoot string) (pipeline.PipelineConfig, error) {
	switch tc.Source.Kind {
	case "probe":
		return pipeline.PipelineConfig{Name: tc.Name}, nil
	case "follow":
	default:
		return pipeline.PipelineConfig{}, fmt.Errorf("unknown source kind %q (want follow or probe)", tc.Source.Kind)
	}
	snapshot := time.Duration(tc.Snapshot)
	if snapshot <= 0 {
		snapshot = time.Second
	}
	an := map[string]any{
		"workers":      tc.Workers,
		"snapshot":     snapshot,
		"idle_timeout": time.Duration(0),
		"cluster_k":    tc.ClusterK,
		"cluster_seed": core.ClusterSeed,
		"point_cap":    0,
		"names":        false,
		"baseline":     tc.BaselinePath,
	}
	if tc.Historian {
		if historianRoot == "" {
			return pipeline.PipelineConfig{}, fmt.Errorf("historian enabled but no HistorianRoot")
		}
		dir, err := historian.NamespaceDir(historianRoot, tc.Name)
		if err != nil {
			return pipeline.PipelineConfig{}, err
		}
		an["historian"] = dir
	}
	return pipeline.SourceGraph(tc.Name, "src", "follow", map[string]any{"path": tc.Source.Path}, an).Pipelines[0], nil
}
