package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"uncharted/internal/pipeline"
)

// Duration is a time.Duration that unmarshals from JSON as either a
// Go duration string ("30s", "1m30s") or a number of nanoseconds, so
// config files stay readable.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v := v.(type) {
	case float64:
		*d = Duration(time.Duration(v))
		return nil
	case string:
		dur, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		*d = Duration(dur)
		return nil
	}
	return fmt.Errorf("duration: want string or number, got %T", v)
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// SourceConfig says where a tenant's packets come from.
type SourceConfig struct {
	// Kind picks the source: "sim" (in-process simulator), "pcap"
	// (finished capture), "follow" (growing capture, tail -f style) or
	// "probe" (no local ingest: the tenant only aggregates partials
	// posted by remote probes).
	Kind string `json:"kind"`
	// Year / Seed / Duration / Speed parameterise a sim source. Year
	// is the capture campaign (1 or 2), Speed the replay pacing
	// (60 = one simulated minute per wall second; 0 = as fast as
	// possible); a pcap source is paced the same way.
	Year     int      `json:"year,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	Speed    float64  `json:"speed,omitempty"`
	// Path is the capture file for pcap / follow sources.
	Path string `json:"path,omitempty"`
}

// TenantConfig describes one hosted tenant: a balancing authority,
// era or capture with its own engine, historian namespace and query
// surface.
type TenantConfig struct {
	// Name routes the tenant: /v1/{name}/... It must be a clean path
	// element.
	Name   string       `json:"name"`
	Source SourceConfig `json:"source"`
	// Workers is the tenant's shard count (default 1).
	Workers int `json:"workers,omitempty"`
	// Snapshot is the rolling-profile period (default 1s).
	Snapshot Duration `json:"snapshot,omitempty"`
	// ClusterK enables session clustering in published profiles.
	ClusterK int `json:"cluster_k,omitempty"`
	// PointCap bounds in-memory samples per series (0 = unbounded).
	PointCap int `json:"point_cap,omitempty"`
	// IdleTimeout evicts idle flows from the tenant's trackers.
	IdleTimeout Duration `json:"idle_timeout,omitempty"`
	// Historian, when true, records the tenant's measurements into its
	// own namespace under the service's historian root and serves
	// /v1/{name}/query.
	Historian bool `json:"historian,omitempty"`
	// BaselinePath arms live drift detection against a stored profile
	// and serves /v1/{name}/drift.
	BaselinePath string `json:"baseline,omitempty"`
}

// Config parameterises the whole control-room service: the daemon's
// config document.
type Config struct {
	// Listen is the HTTP address (cmd/unchartedd's -addr overrides).
	Listen string `json:"listen,omitempty"`
	// CacheEntries caps the snapshot/query response cache (default
	// 4096 entries; 0 uses the default, negative disables caching).
	CacheEntries int `json:"cache_entries,omitempty"`
	// HistorianRoot is the directory holding one historian namespace
	// per tenant that enables it.
	HistorianRoot string `json:"historian_root,omitempty"`
	// Tenants is the shorthand tenant list.
	Tenants []TenantConfig `json:"tenants,omitempty"`
	// Pipelines declares segment graphs in the pipeline package's
	// vocabulary; each is hosted as the tenant of its name. Tenants and
	// pipelines share one namespace.
	Pipelines []pipeline.PipelineConfig `json:"pipelines,omitempty"`
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
// known (pipeline.Decode) — compiles every shorthand tenant and
// graph-checks every pipeline without building a segment. All failures
// are reported together as pipeline.ConfigErrors naming file and line.
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

// Validate checks a programmatically built config the way ParseConfig
// checks a file.
func (c Config) Validate() error { return c.check("", nil) }

func (c Config) check(file string, lines pipeline.Lines) error {
	var errs []error
	fail := func(path, where, msg string) {
		errs = append(errs, &pipeline.ConfigError{File: file, Line: lines[path], Where: where, Msg: msg})
	}
	if len(c.Tenants)+len(c.Pipelines) == 0 {
		fail("", "", "no tenants or pipelines configured")
	}
	tenants := map[string]bool{}
	for i, tc := range c.Tenants {
		path, where := fmt.Sprintf("tenants[%d]", i), fmt.Sprintf("tenant %q", tc.Name)
		if !pipeline.ValidName(tc.Name) {
			fail(path, where, "name must be letters, digits, '-' or '_'")
			continue // its graph would be named after it
		}
		if tenants[tc.Name] {
			fail(path, where, "duplicate tenant name")
		}
		tenants[tc.Name] = true
		graph, err := tc.graph(c.HistorianRoot)
		if err == nil && graph != nil {
			err = graph.Validate()
		}
		if err != nil {
			fail(path, where, err.Error())
		}
	}
	for i, pc := range c.Pipelines {
		if tenants[pc.Name] {
			fail(fmt.Sprintf("pipelines[%d]", i), fmt.Sprintf("pipeline %q", pc.Name), "name taken by a tenant")
		}
	}
	if len(c.Pipelines) > 0 {
		errs = append(errs, (&pipeline.Config{Pipelines: c.Pipelines}).Check(file, lines))
	}
	return errors.Join(errs...)
}
