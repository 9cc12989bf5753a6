package service

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
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
	// (finished capture), "follow" (growing capture, tail -f style),
	// "probe" (no local ingest: the tenant only aggregates partials
	// posted by remote probes) or "pipeline" (host a declared segment
	// graph from a cmd/pipelined config file).
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
	// File / Pipeline select a declared graph for the "pipeline"
	// source kind: File is a cmd/pipelined config (JSON/JSONC) and
	// Pipeline names the pipeline within it (optional when the file
	// declares exactly one). The tenant's profile surface binds to the
	// graph's first analyzer segment; tenant-level engine knobs
	// (workers, snapshot, ...) are ignored — the graph declares its
	// own.
	File     string `json:"file,omitempty"`
	Pipeline string `json:"pipeline,omitempty"`
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

// Config parameterises the whole control-room service.
type Config struct {
	// Listen is the HTTP address (cmd/unchartedd's -addr overrides).
	Listen string `json:"listen,omitempty"`
	// CacheEntries caps the snapshot/query response cache (default
	// 4096 entries; 0 uses the default, negative disables caching).
	CacheEntries int `json:"cache_entries,omitempty"`
	// HistorianRoot is the directory holding one historian namespace
	// per tenant that enables it.
	HistorianRoot string `json:"historian_root,omitempty"`
	// Tenants is the hosted tenant list.
	Tenants []TenantConfig `json:"tenants"`
}

// LoadConfig reads and validates a service config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("service: %s: %w", path, err)
	}
	return cfg, nil
}
