package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// clusterSeed keeps tenant clustering deterministic across restarts,
// matching the single-engine commands.
const clusterSeed = 1202

// Tenant is one hosted balancing authority / era / capture. A tenant
// with local ingest is a segment graph — a declared pipeline, or the
// src → an pair its TenantConfig shorthand compiles into — hosted by
// its own pipeline.Runner; a probe-only tenant has none. Either way it
// carries a fleet aggregate and a pre-built route set.
type Tenant struct {
	name string
	// source is what the tenant index lists: the shorthand's source
	// kind, "probe" or "pipeline".
	source   string
	clusterK int
	// runner hosts the tenant's graph; engine is the engine of the
	// graph's first analyzer, which the profile surface binds to (nil
	// for probe-only tenants and analyzer-less graphs: the fleet
	// aggregate is then the only profile).
	runner *pipeline.Runner
	engine *stream.Engine
	// probes is the fleet aggregate: partials posted by remote probes.
	probes stream.ProbeSet

	routes map[string]route

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	partialsIn  *obs.Counter

	journal *obs.Journal

	cancel context.CancelFunc
	done   chan struct{}
	errMu  sync.Mutex
	runErr error
}

// newTenant builds one tenant around its validated graph (nil for a
// probe-only tenant) — sources, engines and historian namespaces open
// here — and its metric series: everything but the route set, which
// the service wires after it exists (handlers close over the service's
// cache). logf is the graph's log; nil logs to the process log.
func newTenant(name, source string, clusterK int, graph *pipeline.Config, logf func(string, ...any), reg *obs.Registry, journal *obs.Journal) (*Tenant, error) {
	treg := reg.With("tenant", name)
	t := &Tenant{
		name:        name,
		source:      source,
		clusterK:    clusterK,
		journal:     journal,
		cacheHits:   treg.Counter("uncharted_service_cache_hits_total"),
		cacheMisses: treg.Counter("uncharted_service_cache_misses_total"),
		partialsIn:  treg.Counter("uncharted_service_partials_total"),
		done:        make(chan struct{}),
	}
	if graph == nil {
		// Probe-only tenant: no local ingest, the fleet aggregate is the
		// profile.
		return t, nil
	}
	var err error
	t.runner, err = pipeline.NewRunner(graph, pipeline.Options{Registry: treg, Journal: journal, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("service: tenant %s: %w", name, err)
	}
	if a := t.runner.Analyzer(); a != nil {
		t.engine = a.Engine()
	}
	return t, nil
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
		"cluster_seed": clusterSeed,
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
			prof, _ := t.probes.Profile(t.clusterK, clusterSeed, p)
			return prof
		}
	}
	prof, _ := t.probes.Profile(t.clusterK, clusterSeed)
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

// run drives the tenant's graph until its source is exhausted or the
// service drains it; a cancelled ctx is the normal way a live tenant
// stops, and the runner reports it as a clean drain. The historian
// stays open: a finished feed keeps answering /query from it (the
// engine synced it on its final publish) until Service.Drain.
func (t *Tenant) run(ctx context.Context) {
	defer close(t.done)
	if t.runner != nil {
		t.fail(t.runner.Run(ctx))
	}
}

// closeGraph closes what the tenant's graph kept open past its ingest
// (the historian namespace). Closing is idempotent, so a second Drain
// is harmless.
func (t *Tenant) closeGraph() {
	if t.runner != nil {
		t.fail(t.runner.Close())
	}
}

// fail records the tenant's first terminal error.
func (t *Tenant) fail(err error) {
	t.errMu.Lock()
	if t.runErr == nil {
		t.runErr = err
	}
	t.errMu.Unlock()
}

// Err returns the tenant's terminal ingest error, if any; valid once
// the tenant is drained.
func (t *Tenant) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.runErr
}
