package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// clusterSeed keeps tenant clustering deterministic across restarts,
// matching the single-engine commands.
const clusterSeed = 1202

// Tenant is one hosted balancing authority / era / capture: its own
// engine (nil for probe-only tenants), historian namespace, fleet
// aggregate, and pre-built route set.
type Tenant struct {
	name   string
	cfg    TenantConfig
	engine *stream.Engine
	src    stream.Source
	hist   *historian.Store
	// probes is the fleet aggregate: partials posted by remote probes.
	probes stream.ProbeSet
	// runner hosts a declared segment graph for "pipeline" tenants;
	// engine then aliases the graph's first analyzer (or stays nil for
	// analyzer-less graphs).
	runner *pipeline.Runner

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

// newTenant builds one tenant from its config: source, engine,
// historian namespace and metric series — everything but the route
// set, which the service wires after it exists (handlers close over
// the service's cache).
func newTenant(cfg TenantConfig, svcCfg Config, reg *obs.Registry, journal *obs.Journal) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("service: tenant with empty name")
	}
	treg := reg.With("tenant", cfg.Name)
	t := &Tenant{
		name:        cfg.Name,
		cfg:         cfg,
		journal:     journal,
		cacheHits:   treg.Counter("uncharted_service_cache_hits_total"),
		cacheMisses: treg.Counter("uncharted_service_cache_misses_total"),
		partialsIn:  treg.Counter("uncharted_service_partials_total"),
		done:        make(chan struct{}),
	}

	if cfg.Source.Kind == "pipeline" {
		if err := t.attachPipeline(cfg.Source, treg, journal); err != nil {
			return nil, fmt.Errorf("service: tenant %s: %w", cfg.Name, err)
		}
		return t, nil
	}

	src, nameMap, err := buildSource(cfg.Source)
	if err != nil {
		return nil, fmt.Errorf("service: tenant %s: %w", cfg.Name, err)
	}
	if src == nil {
		// Probe-only tenant: no engine, the fleet aggregate is the
		// profile.
		return t, nil
	}
	t.src = src

	if cfg.Historian {
		root := svcCfg.HistorianRoot
		if root == "" {
			return nil, fmt.Errorf("service: tenant %s: historian enabled but no historian_root configured", cfg.Name)
		}
		st, err := historian.OpenNamespace(root, cfg.Name, historian.Options{Registry: treg})
		if err != nil {
			return nil, fmt.Errorf("service: tenant %s: %w", cfg.Name, err)
		}
		t.hist = st
	}

	var baseline *drift.Profile
	if cfg.BaselinePath != "" {
		baseline, err = drift.LoadProfile(cfg.BaselinePath)
		if err != nil {
			return nil, fmt.Errorf("service: tenant %s: %w", cfg.Name, err)
		}
	}

	snapshotEvery := time.Duration(cfg.Snapshot)
	if snapshotEvery <= 0 {
		snapshotEvery = time.Second
	}
	t.engine = stream.New(stream.Config{
		Workers:         cfg.Workers,
		SnapshotEvery:   snapshotEvery,
		IdleTimeout:     time.Duration(cfg.IdleTimeout),
		ClusterK:        cfg.ClusterK,
		ClusterSeed:     clusterSeed,
		Names:           nameMap,
		Registry:        treg,
		Journal:         journal,
		Historian:       t.hist,
		MaxPointSamples: cfg.PointCap,
		Baseline:        baseline,
	})
	return t, nil
}

// attachPipeline hosts a declared segment graph as the tenant's
// ingest: the named pipeline from a cmd/pipelined config file runs
// inside the tenant, and the tenant's profile surface binds to the
// graph's first analyzer segment (a graph without one still runs; the
// fleet aggregate is then the only profile).
func (t *Tenant) attachPipeline(sc SourceConfig, reg *obs.Registry, journal *obs.Journal) error {
	if sc.File == "" {
		return fmt.Errorf(`pipeline source needs "file" (a cmd/pipelined config)`)
	}
	pcfg, err := pipeline.Load(sc.File)
	if err != nil {
		return err
	}
	var pc *pipeline.PipelineConfig
	if sc.Pipeline == "" {
		if len(pcfg.Pipelines) != 1 {
			return fmt.Errorf("%s declares %d pipelines; set \"pipeline\" to pick one", sc.File, len(pcfg.Pipelines))
		}
		pc = &pcfg.Pipelines[0]
	} else {
		for i := range pcfg.Pipelines {
			if pcfg.Pipelines[i].Name == sc.Pipeline {
				pc = &pcfg.Pipelines[i]
				break
			}
		}
		if pc == nil {
			return fmt.Errorf("%s declares no pipeline %q", sc.File, sc.Pipeline)
		}
	}
	runner, err := pipeline.NewRunner(&pipeline.Config{Pipelines: []pipeline.PipelineConfig{*pc}},
		pipeline.Options{Registry: reg, Journal: journal})
	if err != nil {
		return err
	}
	t.runner = runner
	for _, st := range runner.Status() {
		for _, seg := range st.Segments {
			if a, ok := runner.Segment(st.Name, seg.ID).(*pipeline.AnalyzerSegment); ok {
				t.engine = a.Engine()
				t.hist = a.Historian()
				return nil
			}
		}
	}
	return nil
}

// buildSource materialises a tenant's packet source through the shared
// opener. A probe source returns (nil, nil, nil): no local ingest.
func buildSource(sc SourceConfig) (stream.Source, map[netip.Addr]string, error) {
	if sc.Kind == "probe" || sc.Kind == "" {
		return nil, nil, nil
	}
	feed, err := stream.OpenSource(stream.SourceSpec{
		Kind:  sc.Kind,
		Path:  sc.Path,
		Speed: sc.Speed,
		Sim:   stream.SimSpec{Year: sc.Year, Seed: sc.Seed, Duration: time.Duration(sc.Duration)},
	})
	if err != nil {
		return nil, nil, err
	}
	var names map[netip.Addr]string
	if feed.Network != nil {
		names = core.NamesFromTopology(feed.Network)
	}
	return feed.Source, names, nil
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
			prof, _ := t.probes.Profile(t.cfg.ClusterK, clusterSeed, p)
			return prof
		}
	}
	prof, _ := t.probes.Profile(t.cfg.ClusterK, clusterSeed)
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

// run drives the tenant's engine until its source is exhausted or the
// service drains it.
func (t *Tenant) run(ctx context.Context) {
	defer close(t.done)
	if t.runner != nil {
		// The graph owns its segments' lifecycles (the analyzer closes
		// its own historian); a cancelled ctx is the normal drain.
		err := t.runner.Run(ctx)
		t.errMu.Lock()
		t.runErr = err
		t.errMu.Unlock()
		return
	}
	if t.engine == nil {
		return
	}
	err := t.engine.Run(ctx, t.src)
	if errors.Is(err, context.Canceled) {
		// A drain is the normal way a live tenant stops.
		err = nil
	}
	t.src.Close()
	// The historian stays open: a finished feed keeps answering
	// /query from it (the engine synced it on its final publish).
	// Service.Drain closes it.
	t.errMu.Lock()
	t.runErr = err
	t.errMu.Unlock()
}

// closeStore closes the tenant's own historian namespace once its
// ingest is done; a pipeline tenant's graph closes its own. Store.Close
// is idempotent, so a second Drain is harmless.
func (t *Tenant) closeStore() {
	if t.hist == nil || t.runner != nil {
		return
	}
	if err := t.hist.Close(); err != nil {
		t.errMu.Lock()
		if t.runErr == nil {
			t.runErr = err
		}
		t.errMu.Unlock()
	}
}

// Err returns the tenant's terminal ingest error, if any; valid once
// the tenant is drained.
func (t *Tenant) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.runErr
}
