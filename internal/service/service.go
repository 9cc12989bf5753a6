// Package service is the control-room layer of the measurement
// pipeline: one process hosting N concurrent streaming engines — one
// per tenant, where a tenant is a balancing authority, a capture era,
// or a single capture — behind a multi-tenant HTTP API. A tenant with
// local ingest is a segment graph (internal/pipeline): a pipeline the
// config declares, or the src → analyzer pair a tenant's shorthand
// compiles into, named after the tenant. One pipeline.Runner hosts every
// tenant's pipeline; the service builds no engine and opens no source
// of its own.
//
//	GET  /v1/{tenant}/profile   rolling profile (cached per snapshot;
//	                            a probe-only tenant's is its /fleet)
//	GET  /v1/{tenant}/drift     live drift report (cached)
//	GET  /v1/{tenant}/query     historian queries, per-tenant namespace
//	GET  /v1/{tenant}/statusz   live pipeline topology (uncached)
//	GET  /v1/{tenant}/fleet     fleet-wide merged profile (cached)
//	GET  /v1/{tenant}/pipeline  the tenant's live segment graph (engine tenants)
//	POST /v1/{tenant}/partial   remote-probe partial ingest
//	GET  /v1/{tenant}/readyz    tenant readiness
//	GET  /v1/                   tenant index
//
// The query handlers are the analyzer segment's, the same ones every
// graph-running command mounts (pipeline.AnalyzerSegment.Endpoints),
// wrapped in an LRU response cache that holds one rendered document per
// (tenant, endpoint, query) and checks the snapshot version it was
// rendered from: hot reads of the
// current snapshot are served from memory with a stable ETag and never
// touch the analyzer; after a new snapshot the first read of a
// document re-renders it over its predecessor. Remote probes
// (profiler -push, or anything that can write the drift profile
// codec) post their merged partials to /partial, and the commutative
// MergePartials folds them into a fleet-wide rolling profile — the
// paper's per-substation taps aggregated at the fleet collection
// point.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// Service hosts the tenants. Build with New, start ingest with Start,
// mount Handler, stop with Drain.
type Service struct {
	reg     *obs.Registry
	cache   *Cache
	tenants map[string]*Tenant
	order   []string
	mux     *http.ServeMux

	// runner hosts every tenant's pipeline; nil when every tenant is
	// probe-only. done closes when its Run returns, with runErr set.
	runner *pipeline.Runner
	cancel context.CancelFunc
	done   chan struct{}
	runErr error
}

// New builds the service and all its tenants — the shorthand ones,
// then one per declared pipeline — over one graph holding each
// tenant's pipeline, sources included: sim tenants synthesize their
// feed here, so New is where the cost is, and a failed build closes
// what it had built. reg and journal may be nil.
func New(cfg Config, reg *obs.Registry, journal *obs.Journal) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var cache *Cache
	if cfg.CacheEntries >= 0 {
		cache = NewCache(cfg.CacheEntries)
	}
	s := &Service{
		reg:     reg,
		cache:   cache,
		tenants: make(map[string]*Tenant),
		mux:     http.NewServeMux(),
		done:    make(chan struct{}),
	}
	graph := &pipeline.Config{}
	for _, tc := range cfg.Tenants {
		if g, _ := tc.graph(cfg.HistorianRoot); g != nil { // compiled by Validate
			graph.Pipelines = append(graph.Pipelines, g.Pipelines...)
		}
	}
	graph.Pipelines = append(graph.Pipelines, cfg.Pipelines...)
	analyzers := map[string]*pipeline.AnalyzerSegment{}
	var graphEps map[string]http.Handler
	if len(graph.Pipelines) > 0 {
		r, err := pipeline.NewRunner(graph, pipeline.Options{Registry: reg, Journal: journal})
		if err != nil {
			return nil, err
		}
		s.runner, graphEps = r, r.Endpoints()
		for _, pc := range graph.Pipelines {
			// A tenant's profile surface binds to its pipeline's first
			// analyzer.
			if i := slices.IndexFunc(pc.Nodes, func(n pipeline.NodeConfig) bool { return n.Kind == "analyzer" }); i >= 0 {
				analyzers[pc.Name] = r.Segment(pc.Name, pc.Nodes[i].ID).(*pipeline.AnalyzerSegment)
			}
		}
	}
	add := func(name, source string, clusterK int) {
		t := newTenant(name, source, clusterK, analyzers[name], reg, journal)
		s.wireTenant(t, analyzers[name], graphEps["/pipelines/"+name+"/statusz"])
		s.tenants[name] = t
		s.order = append(s.order, name)
	}
	for _, tc := range cfg.Tenants {
		add(tc.Name, cmp.Or(tc.Source.Kind, "probe"), tc.ClusterK)
	}
	for _, pc := range cfg.Pipelines {
		add(pc.Name, "pipeline", 0)
	}
	s.routes()
	return s, nil
}

// route is one endpoint mounted for a tenant, with the request
// counters nearly every response lands on resolved up front.
type route struct {
	h               http.Handler
	ok, notModified *obs.Counter
}

// requests is the per-(tenant, endpoint, status) request counter.
func (s *Service) requests(tenant, endpoint, code string) *obs.Counter {
	return s.reg.Counter("uncharted_service_requests_total", "tenant", tenant, "endpoint", endpoint, "code", code)
}

// wireTenant builds the tenant's route set from its analyzer's
// endpoints (an is nil for a tenant without one) and its pipeline's
// graph view (nil for a probe-only tenant) plus the service-level cache
// and aggregation routes.
func (s *Service) wireTenant(t *Tenant, an *pipeline.AnalyzerSegment, graphStatus http.Handler) {
	t.routes = make(map[string]route)
	mount := func(endpoint string, h http.Handler) {
		ok, notModified := s.requests(t.name, endpoint, "200"), s.requests(t.name, endpoint, "304")
		t.routes[endpoint] = route{h, ok, notModified}
	}
	fleet := s.cached(t, "fleet", t.fleetVersion, stream.NewProfileHandler(t.fleetProfile))
	if an != nil {
		eps := an.Endpoints()
		mount("profile", s.cached(t, "profile", t.engineVersion, eps["/profile"]))
		mount("statusz", eps["/statusz"])
		if h, ok := eps["/drift"]; ok {
			mount("drift", s.cached(t, "drift", driftVersion(an.Drift), h))
		}
		if h, ok := eps["/query"]; ok {
			mount("query", s.cached(t, "query", t.engineVersion, h))
		}
	} else {
		// Probe-only tenant: the fleet aggregate IS the profile — the
		// same handler, so one merge, one encode and one cache entry
		// per fleet version answer both URLs.
		mount("profile", fleet)
	}
	if graphStatus != nil {
		// The live graph view (uncached: it moves every poll).
		mount("pipeline", graphStatus)
	}
	mount("fleet", fleet)
	mount("partial", http.HandlerFunc(t.handlePartial))
	mount("readyz", obs.ReadyHandler(t.Ready))
}

// routes mounts the /v1 tree. Patterns carry the method, so a POST to
// /profile is 405 from the mux itself.
func (s *Service) routes() {
	s.mux.Handle("GET /v1/{tenant}/profile", s.tenantRoute("profile"))
	s.mux.Handle("GET /v1/{tenant}/drift", s.tenantRoute("drift"))
	s.mux.Handle("GET /v1/{tenant}/query", s.tenantRoute("query"))
	s.mux.Handle("GET /v1/{tenant}/statusz", s.tenantRoute("statusz"))
	s.mux.Handle("GET /v1/{tenant}/fleet", s.tenantRoute("fleet"))
	s.mux.Handle("GET /v1/{tenant}/pipeline", s.tenantRoute("pipeline"))
	s.mux.Handle("GET /v1/{tenant}/readyz", s.tenantRoute("readyz"))
	s.mux.Handle("POST /v1/{tenant}/partial", s.tenantRoute("partial"))
	s.mux.HandleFunc("GET /v1/{$}", s.handleIndex)
	s.mux.HandleFunc("GET /v1", s.handleIndex)
}

// tenantRoute resolves {tenant} and dispatches to its handler for the
// endpoint, counting every request by tenant, endpoint and status.
func (s *Service) tenantRoute(endpoint string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := req.PathValue("tenant")
		t, ok := s.tenants[name]
		if !ok {
			s.requests("unknown", endpoint, "404").Inc()
			writeJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", name))
			return
		}
		r, ok := t.routes[endpoint]
		if !ok {
			s.requests(name, endpoint, "404").Inc()
			writeJSONError(w, http.StatusNotFound,
				fmt.Sprintf("endpoint %s not enabled for tenant %s", endpoint, name))
			return
		}
		cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
		r.h.ServeHTTP(cw, req)
		switch cw.code {
		case http.StatusOK:
			r.ok.Inc()
		case http.StatusNotModified:
			r.notModified.Inc()
		default:
			s.requests(name, endpoint, strconv.Itoa(cw.code)).Inc()
		}
	})
}

// handleIndex is GET /v1: the tenant directory.
func (s *Service) handleIndex(w http.ResponseWriter, _ *http.Request) {
	type row struct {
		Name      string   `json:"name"`
		Source    string   `json:"source"`
		Ready     bool     `json:"ready"`
		Reason    string   `json:"reason,omitempty"`
		Seq       int      `json:"seq"`
		Probes    int      `json:"probes"`
		Endpoints []string `json:"endpoints"`
	}
	rows := make([]row, 0, len(s.order))
	for _, name := range s.order {
		t := s.tenants[name]
		ready, reason := t.Ready()
		r := row{Name: name, Source: t.source, Ready: ready, Reason: reason}
		if t.engine != nil {
			if p := t.engine.Profile(); p != nil {
				r.Seq = p.Seq
			}
		}
		r.Probes = t.probes.Len()
		for ep := range t.routes {
			r.Endpoints = append(r.Endpoints, ep)
		}
		sort.Strings(r.Endpoints)
		rows = append(rows, r)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants":       rows,
		"cache_entries": s.cache.Len(),
	})
}

// Handler returns the /v1 tree, ready to mount into obs.HandlerWith
// under the "/v1/" prefix (the service mux patterns carry the full
// path, so no stripping is needed).
func (s *Service) Handler() http.Handler { return s.mux }

// Endpoints returns the daemon's route map for obs.HandlerWith: the
// /v1 tree, /readyz and, when any tenant has a graph, the runner's
// endpoints — every pipeline's segment endpoints under
// /pipelines/{p}/... (a tenant's pipeline is named after it), its graph
// view at /pipelines/{p}/statusz, and every graph at /statusz.
func (s *Service) Endpoints() map[string]http.Handler {
	eps := map[string]http.Handler{}
	if s.runner != nil {
		eps = s.runner.Endpoints()
	}
	eps["/v1"], eps["/v1/"] = s.mux, s.mux
	eps["/readyz"] = obs.ReadyHandler(s.Ready)
	return eps
}

// Start launches every tenant's ingest. The graph drains when ctx is
// cancelled; Drain waits for it. A tenant whose input ends keeps
// serving: its engine published its final profile and synced its
// historian, which stays open for /query until Drain.
func (s *Service) Start(ctx context.Context) {
	ctx, s.cancel = context.WithCancel(ctx)
	go func() {
		defer close(s.done)
		if s.runner != nil {
			s.runErr = s.runner.Run(ctx)
		}
	}()
}

// Drain cancels every tenant's ingest, waits until all engines have
// drained their shards and published their final profiles — the
// graceful-shutdown path reusing the engine lifecycle state machine —
// and closes the tenants' historians: /query is gone after Drain. The
// error joins every segment failure of the run and of the close, each
// labeled with its pipeline (the tenant) and segment.
func (s *Service) Drain() error {
	s.cancel()
	<-s.done
	if s.runner == nil {
		return nil
	}
	return errors.Join(s.runErr, s.runner.Close())
}

// Wait blocks until every tenant's ingest finished on its own (finite
// sources) or was drained.
func (s *Service) Wait() { <-s.done }

// Ready is the service-wide readiness check: every tenant must be
// ready.
func (s *Service) Ready() (bool, string) {
	for _, name := range s.order {
		if ok, reason := s.tenants[name].Ready(); !ok {
			return false, name + ": " + reason
		}
	}
	return true, ""
}

// Tenant returns a hosted tenant by name, or nil.
func (s *Service) Tenant(name string) *Tenant { return s.tenants[name] }

// Tenants returns the tenant names in config order.
func (s *Service) Tenants() []string { return append([]string(nil), s.order...) }

// countingWriter captures the status code for the request counter.
type countingWriter struct {
	http.ResponseWriter
	code int
}

func (c *countingWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

// writeJSON renders a JSON response with the service's standard
// header.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	obs.WriteIndentedJSON(w, v)
}

// writeJSONError is the service's uniform error document.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
