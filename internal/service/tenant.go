package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// Tenant is one hosted balancing authority / era / capture. A tenant
// with local ingest is the pipeline of its name in the service's graph
// — a declared pipeline, or the src → an pair its TenantConfig
// shorthand compiles into; a probe-only tenant has none. Either way it
// carries a fleet aggregate and a pre-built route set.
type Tenant struct {
	name string
	// source is what the tenant index lists: the shorthand's source
	// kind, "probe" or "pipeline".
	source   string
	clusterK int
	// engine is the engine of the pipeline's first analyzer, which the
	// profile surface binds to (nil for probe-only tenants and
	// analyzer-less pipelines: the fleet aggregate is then the only
	// profile).
	engine *stream.Engine
	// probes is the fleet aggregate: partials posted by remote probes.
	probes stream.ProbeSet

	routes map[string]route

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	partialsIn  *obs.Counter

	journal *obs.Journal
}

// newTenant builds one tenant around its pipeline's first analyzer (nil
// for none) and its metric series: everything but the route set, which
// the service wires after it exists (handlers close over the service's
// cache).
func newTenant(name, source string, clusterK int, an *pipeline.AnalyzerSegment, reg *obs.Registry, journal *obs.Journal) *Tenant {
	treg := reg.With("tenant", name)
	t := &Tenant{
		name:        name,
		source:      source,
		clusterK:    clusterK,
		journal:     journal,
		cacheHits:   treg.Counter("uncharted_service_cache_hits_total"),
		cacheMisses: treg.Counter("uncharted_service_cache_misses_total"),
		partialsIn:  treg.Counter("uncharted_service_partials_total"),
	}
	if an != nil {
		t.engine = an.Engine()
	}
	return t
}

// graph compiles the TenantConfig shorthand into the graph a config
// would declare for it — pipeline {name}, segments "src" (the sim, pcap
// or follow input) → "an" — or nil for a probe-only tenant. Every value
// is written out, because the shorthand's defaults are its own: a sim
// source without a duration simulates the campaign default, clustering
// is off unless cluster_k says otherwise, the snapshot period defaults
// to 1 s, only a simulated feed is labeled with the simulated
// topology's names, and the historian lives in the tenant's namespace
// under the service root.
func (cfg TenantConfig) graph(historianRoot string) (*pipeline.Config, error) {
	sc := cfg.Source
	var src map[string]any
	switch sc.Kind {
	case "probe", "":
		return nil, nil
	case "sim":
		src = map[string]any{"year": sc.Year, "seed": sc.Seed, "duration": time.Duration(sc.Duration), "speed": sc.Speed}
	case "pcap":
		src = map[string]any{"path": sc.Path, "speed": sc.Speed}
	case "follow":
		src = map[string]any{"path": sc.Path}
	default:
		return nil, fmt.Errorf("unknown source kind %q (want sim, pcap, follow or probe)", sc.Kind)
	}
	snapshot := time.Duration(cfg.Snapshot)
	if snapshot <= 0 {
		snapshot = time.Second
	}
	an := map[string]any{
		"workers":      cfg.Workers,
		"snapshot":     snapshot,
		"idle_timeout": time.Duration(cfg.IdleTimeout),
		"cluster_k":    cfg.ClusterK,
		"cluster_seed": core.ClusterSeed,
		"point_cap":    cfg.PointCap,
		"names":        sc.Kind == "sim",
		"baseline":     cfg.BaselinePath,
	}
	if cfg.Historian {
		if historianRoot == "" {
			return nil, fmt.Errorf("historian enabled but no historian_root configured")
		}
		dir, err := historian.NamespaceDir(historianRoot, cfg.Name)
		if err != nil {
			return nil, err
		}
		an["historian"] = dir
	}
	return pipeline.SourceGraph(cfg.Name, "src", sc.Kind, src, an), nil
}

// engineVersion is the cache version for engine-backed endpoints: the
// published snapshot sequence.
func (t *Tenant) engineVersion() string {
	if t.engine != nil {
		if p := t.engine.Profile(); p != nil {
			return strconv.Itoa(p.Seq)
		}
	}
	return "0"
}

// driftVersion is the cache version for /drift: the seq of the snapshot
// the served report compared, not the engine's. A snapshot's profile is
// stored before its drift report, so a read between the two would
// otherwise cache the old report under the new seq — for good, once a
// finished capture's final publish stops the seq moving.
func driftVersion(latest func() (*drift.DriftReport, int)) func() string {
	return func() string {
		_, seq := latest()
		return strconv.Itoa(seq)
	}
}

// fleetVersion is the cache version for the fleet view: it moves with
// both the probe aggregate and the local snapshot sequence.
func (t *Tenant) fleetVersion() string {
	return strconv.FormatUint(t.probes.Version(), 10) + "-" + t.engineVersion()
}

// fleetProfile merges the probe partials with the tenant's own latest
// snapshot (when an engine exists) into the fleet-wide rolling
// profile, or nil when nothing has been seen yet.
func (t *Tenant) fleetProfile() *stream.Profile {
	if t.engine != nil {
		if p, ok := t.engine.LastPartial(); ok {
			prof, _ := t.probes.Profile(t.clusterK, core.ClusterSeed, p)
			return prof
		}
	}
	prof, _ := t.probes.Profile(t.clusterK, core.ClusterSeed)
	return prof
}

// Ready reports tenant readiness: probe tenants are always ready;
// engine tenants are ready once their first snapshot has published —
// before that the query surface would serve 503s — and stay ready
// after a finite feed ends because the final profile keeps serving.
func (t *Tenant) Ready() (bool, string) {
	if t.engine == nil {
		return true, ""
	}
	if t.engine.Profile() == nil {
		if ok, reason := t.engine.Ready(); !ok {
			return false, reason
		}
		return false, "no snapshot published yet"
	}
	return true, ""
}

// handlePartial is POST /v1/{tenant}/partial (the route pattern
// carries the method): fold a drift-codec profile posted by a remote
// probe into the fleet aggregate.
func (t *Tenant) handlePartial(w http.ResponseWriter, req *http.Request) {
	ack, code, err := t.probes.Accept(req)
	if err != nil {
		writeJSONError(w, code, err.Error())
		return
	}
	t.partialsIn.Inc()
	t.journal.Log(time.Now(), obs.EventPartial, ack.Probe, map[string]any{
		"tenant":  t.name,
		"packets": ack.Packets,
		"probes":  ack.Probes,
		"version": ack.Version,
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":  t.name,
		"probe":   ack.Probe,
		"probes":  ack.Probes,
		"version": ack.Version,
	})
}
