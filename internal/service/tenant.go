package service

import (
	"net/http"
	"strconv"
	"time"

	"uncharted/internal/drift"
	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// Tenant is one hosted balancing authority / era / capture: the
// pipeline of its name in the service's graph, bound to that
// pipeline's first analyzer or, in a probe-only tenant's empty
// pipeline, to none. It carries a fleet aggregate and a pre-built
// route set.
type Tenant struct {
	name string
	// source is what the tenant index lists: the kind of the pipeline's
	// input segment, or "probe" when it has none.
	source string
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

// newTenant builds the tenant of pipeline pc around its first analyzer
// (nil for none) and its metric series: everything but the route set,
// which the service wires after it exists (handlers close over the
// service's cache).
func newTenant(pc pipeline.PipelineConfig, an *pipeline.AnalyzerSegment, reg *obs.Registry, journal *obs.Journal) *Tenant {
	treg := reg.With("tenant", pc.Name)
	t := &Tenant{
		name:        pc.Name,
		source:      "probe",
		journal:     journal,
		cacheHits:   treg.Counter("uncharted_service_cache_hits_total"),
		cacheMisses: treg.Counter("uncharted_service_cache_misses_total"),
		partialsIn:  treg.Counter("uncharted_service_partials_total"),
	}
	for _, n := range pc.Nodes {
		if spec, _ := pipeline.Lookup(n.Kind); spec.In == pipeline.PortNone {
			t.source = n.Kind
			break
		}
	}
	if an != nil {
		t.engine = an.Engine()
	}
	return t
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
// profile, clustered like the engine's own profile (not at all without
// one), or nil when nothing has been seen yet.
func (t *Tenant) fleetProfile() *stream.Profile {
	if t.engine == nil {
		prof, _ := t.probes.Profile(0, 0)
		return prof
	}
	k, seed := t.engine.Clustering()
	if p, ok := t.engine.LastPartial(); ok {
		prof, _ := t.probes.Profile(k, seed, p)
		return prof
	}
	prof, _ := t.probes.Profile(k, seed)
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
