package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// startSimService boots a one-sim-tenant service over a short
// synthesized capture and returns it with an httptest server mounted
// on its /v1 tree. The engine runs the feed to completion before
// return, so queries observe the final snapshot.
func startSimService(t *testing.T, tc TenantConfig, svcCfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if tc.Source.Kind == "" {
		tc.Source = SourceConfig{Kind: "sim", Year: 1, Seed: 7, Duration: Duration(2 * time.Minute)}
	}
	svcCfg.Tenants = append(svcCfg.Tenants, tc)
	return startService(t, svcCfg)
}

// startService boots cfg, waits until every tenant's finite feed has
// ended, so queries observe the final snapshots, and mounts the /v1
// tree on an httptest server.
func startService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(context.Background())
	svc.Wait()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServiceEndpointHeaders is the header / field-name regression
// test: every query endpoint must declare an explicit Content-Type,
// honor ?format=, reject unknown formats with a JSON 400, and keep the
// profile document's JSON field names stable.
func TestServiceEndpointHeaders(t *testing.T) {
	_, srv := startSimService(t, TenantConfig{Name: "east", Workers: 2, Historian: true},
		Config{HistorianRoot: t.TempDir()})

	cases := []struct {
		name       string
		path       string
		wantCode   int
		wantCT     string
		wantInBody string
	}{
		{"profile json default", "/v1/east/profile", 200, "application/json; charset=utf-8", `"seq"`},
		{"profile json explicit", "/v1/east/profile?format=json", 200, "application/json; charset=utf-8", `"packets"`},
		{"profile text", "/v1/east/profile?format=text", 200, "text/plain; charset=utf-8", "rolling profile seq"},
		{"profile bad format", "/v1/east/profile?format=xml", 400, "application/json; charset=utf-8", "unsupported format"},
		{"statusz html default", "/v1/east/statusz", 200, "text/html; charset=utf-8", "<html"},
		{"statusz json", "/v1/east/statusz?format=json", 200, "application/json; charset=utf-8", `"state"`},
		{"statusz text", "/v1/east/statusz?format=text", 200, "text/plain; charset=utf-8", "state "},
		{"query json default", "/v1/east/query", 200, "application/json; charset=utf-8", `"station"`},
		{"query text csv", "/v1/east/query?format=text", 200, "text/plain; charset=utf-8", "station,ioa,type"},
		{"query bad format", "/v1/east/query?format=yaml", 400, "application/json; charset=utf-8", "unsupported format"},
		{"unknown tenant", "/v1/nope/profile", 404, "application/json; charset=utf-8", "unknown tenant"},
		{"disabled endpoint", "/v1/east/drift", 404, "application/json; charset=utf-8", "not enabled"},
		{"index", "/v1/", 200, "application/json; charset=utf-8", `"tenants"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, srv.URL+tc.path)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("code %d, want %d (body %.120s)", resp.StatusCode, tc.wantCode, body)
			}
			if got := resp.Header.Get("Content-Type"); got != tc.wantCT {
				t.Errorf("Content-Type %q, want %q", got, tc.wantCT)
			}
			if !strings.Contains(string(body), tc.wantInBody) {
				t.Errorf("body %.160q missing %q", body, tc.wantInBody)
			}
		})
	}

	// The profile document's field names are API surface: downstream
	// dashboards bind to them, so renames must be deliberate.
	_, body := get(t, srv.URL+"/v1/east/profile")
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"seq", "workers", "first", "last", "packets", "iec_packets",
		"parse_errors", "seq_anomalies", "total_asdus", "flows",
		"compliance", "markov",
	} {
		if _, ok := doc[field]; !ok {
			t.Errorf("profile JSON lost field %q", field)
		}
	}
	flows, _ := doc["flows"].(map[string]any)
	for _, field := range []string{"total", "short_lived", "long_lived", "short_lived_subsec", "subsec_proportion"} {
		if _, ok := flows[field]; !ok {
			t.Errorf("profile flows JSON lost field %q", field)
		}
	}
}

func TestServiceCacheOverHTTP(t *testing.T) {
	_, srv := startSimService(t, TenantConfig{Name: "east", Workers: 1}, Config{})

	r1, b1 := get(t, srv.URL+"/v1/east/profile")
	if r1.Header.Get("X-Cache") != "miss" {
		t.Errorf("first read X-Cache %q, want miss", r1.Header.Get("X-Cache"))
	}
	r2, b2 := get(t, srv.URL+"/v1/east/profile")
	if r2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second read X-Cache %q, want hit", r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached body differs from rendered body")
	}
	if e1, e2 := r1.Header.Get("ETag"), r2.Header.Get("ETag"); e1 == "" || e1 != e2 {
		t.Errorf("ETags %q / %q, want equal and non-empty", e1, e2)
	}

	req, _ := http.NewRequest("GET", srv.URL+"/v1/east/profile", nil)
	req.Header.Set("If-None-Match", r1.Header.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match code %d, want 304", resp.StatusCode)
	}
}

// TestIdleTenantKeepsETag: a follow tenant that has caught up with its
// file publishes nothing more, so its documents keep their versions.
// /profile, /fleet, /drift and a point /query answer with the same
// ETag across at least ten 5 ms snapshot ticks, /statusz's last publish
// stays put while its last check moves, and a conditional GET is a 304
// from the cache. Records appended to the file move /profile again.
func TestIdleTenantKeepsETag(t *testing.T) {
	const tick = 5 * time.Millisecond
	path, records := writeCapture(t, 2*time.Minute, 7)
	more, _ := writeCapture(t, 20*time.Second, 8)
	base := filepath.Join(t.TempDir(), "base.prof")
	if err := drift.SaveProfile(base, drift.NewProfile("empty", "test", core.Partial{}, time.Unix(0, 0).UTC())); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{HistorianRoot: t.TempDir(), Tenants: []TenantConfig{{
		Name: "live", Source: SourceConfig{Kind: "follow", Path: path},
		Workers: 2, Snapshot: Duration(tick), Historian: true, BaselinePath: base,
	}}}, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(context.Background())
	t.Cleanup(func() {
		if err := svc.Drain(); err != nil {
			t.Error(err)
		}
	})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	url := srv.URL + "/v1/live"
	eng := svc.Tenant("live").engine
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(tick) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	profile := func() (etag string, seq, packets int) {
		resp, body := get(t, url+"/profile")
		var doc struct{ Seq, Packets int }
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &doc) != nil {
			return "", 0, 0
		}
		return resp.Header.Get("ETag"), doc.Seq, doc.Packets
	}
	waitUntil(fmt.Sprintf("the tenant to ingest the capture's %d records", records), func() bool {
		_, _, n := profile()
		return n == records
	})

	_, body := get(t, url+"/query")
	var catalog []struct {
		Station string `json:"station"`
		IOA     uint32 `json:"ioa"`
	}
	if err := json.Unmarshal(body, &catalog); err != nil || len(catalog) == 0 {
		t.Fatalf("catalog: %v (%.120q)", err, body)
	}
	docs := []string{"/profile", "/fleet", "/drift", fmt.Sprintf("/query?station=%s&ioa=%d", catalog[0].Station, catalog[0].IOA)}
	etags := func() []string {
		var tags []string
		for _, doc := range docs {
			resp, _ := get(t, url+doc)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
				t.Fatalf("%s: code %d, ETag %q", doc, resp.StatusCode, resp.Header.Get("ETag"))
			}
			tags = append(tags, resp.Header.Get("ETag"))
		}
		return tags
	}
	// A publish stores its profile before the drift watch compares it,
	// so wait until /drift names the seq /profile does.
	waitUntil("the drift report of the last publish", func() bool {
		_, seq, _ := profile()
		resp, _ := get(t, url+"/drift")
		return strings.HasPrefix(resp.Header.Get("ETag"), fmt.Sprintf(`"live-drift-%d-`, seq))
	})

	before, published, since := etags(), eng.Status().LastPublish, time.Now()
	waitUntil("ten snapshot ticks", func() bool {
		last := eng.Status().LastTick
		return last != nil && last.After(since.Add(10*tick))
	})
	after := etags()
	for i, doc := range docs {
		if before[i] != after[i] {
			t.Errorf("%s: ETag %s became %s with nothing ingested", doc, before[i], after[i])
		}
	}
	if st := eng.Status(); published == nil || st.LastPublish == nil || !st.LastPublish.Equal(*published) {
		t.Errorf("/statusz last publish moved from %v to %v with nothing ingested", published, st.LastPublish)
	}

	req, _ := http.NewRequest(http.MethodGet, url+"/profile", nil)
	req.Header.Set("If-None-Match", before[0])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("conditional GET: code %d X-Cache %q, want 304 hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	tail, err := os.ReadFile(more)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail[24:]); err != nil { // its records, not its file header
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil("the appended records to publish", func() bool {
		etag, _, n := profile()
		return n > records && etag != before[0]
	})
}

// TestProbeProfileSharesFleetEntry: a probe-only tenant's /profile is
// its /fleet — one handler behind one cache entry — so per fleet
// version the aggregate is merged, built and encoded once whichever
// URL asks first, and the other is a hit with the same bytes.
func TestProbeProfileSharesFleetEntry(t *testing.T) {
	svc, srv := startSimService(t, TenantConfig{Name: "fleet", Source: SourceConfig{Kind: "probe"}}, Config{})
	misses := func() int64 {
		for _, c := range svc.reg.Snapshot().Counters {
			if c.Name == "uncharted_service_cache_misses_total" {
				return c.Value
			}
		}
		t.Fatal("no cache-miss counter")
		return 0
	}
	for round, urls := range [][2]string{{"/fleet", "/profile"}, {"/profile", "/fleet"}} {
		body := drift.NewProfile("site"+fmt.Sprint(round), "tap", core.Partial{}, time.Unix(0, 0).UTC()).Encode()
		resp, err := http.Post(srv.URL+"/v1/fleet/partial", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: post partial: code %d", round, resp.StatusCode)
		}

		before, entries := misses(), svc.cache.Len()
		r1, b1 := get(t, srv.URL+"/v1/fleet"+urls[0])
		r2, b2 := get(t, srv.URL+"/v1/fleet"+urls[1])
		if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
			t.Errorf("round %d: first read of %s: code %d X-Cache %q, want a 200 miss", round, urls[0], r1.StatusCode, r1.Header.Get("X-Cache"))
		}
		if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "hit" {
			t.Errorf("round %d: %s after %s: code %d X-Cache %q, want a 200 hit", round, urls[1], urls[0], r2.StatusCode, r2.Header.Get("X-Cache"))
		}
		if !bytes.Equal(b1, b2) || len(b1) == 0 {
			t.Errorf("round %d: %s (%d bytes) and %s (%d bytes) differ", round, urls[0], len(b1), urls[1], len(b2))
		}
		if e1, e2 := r1.Header.Get("ETag"), r2.Header.Get("ETag"); e1 == "" || e1 != e2 {
			t.Errorf("round %d: ETags %q / %q, want equal and non-empty", round, e1, e2)
		}
		if got := misses() - before; got != 1 {
			t.Errorf("round %d: %d cache misses for one fleet version, want 1", round, got)
		}
		// The first round creates the entry; every later version reuses it.
		if want := max(entries, 1); svc.cache.Len() != want {
			t.Errorf("round %d: %d cache entries, want %d", round, svc.cache.Len(), want)
		}
	}
}

// TestRequestCountersByCode: the 200 and 304 request counters a route
// resolves at wiring time and the looked-up ones for every other code
// are the same uncharted_service_requests_total family on /metrics.
func TestRequestCountersByCode(t *testing.T) {
	svc, srv := startSimService(t, TenantConfig{Name: "east", Workers: 1}, Config{})
	r, _ := get(t, srv.URL+"/v1/east/profile")
	get(t, srv.URL+"/v1/east/profile")
	req, _ := http.NewRequest("GET", srv.URL+"/v1/east/profile", nil)
	req.Header.Set("If-None-Match", r.Header.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	get(t, srv.URL+"/v1/east/profile?format=xml") // 400
	get(t, srv.URL+"/v1/east/drift")              // 404: no baseline configured
	get(t, srv.URL+"/v1/nobody/profile")          // 404: unknown tenant

	var metrics bytes.Buffer
	if err := svc.reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`uncharted_service_requests_total{tenant="east",endpoint="profile",code="200"} 2`,
		`uncharted_service_requests_total{tenant="east",endpoint="profile",code="304"} 1`,
		`uncharted_service_requests_total{tenant="east",endpoint="profile",code="400"} 1`,
		`uncharted_service_requests_total{tenant="east",endpoint="drift",code="404"} 1`,
		`uncharted_service_requests_total{tenant="unknown",endpoint="profile",code="404"} 1`,
	} {
		if !strings.Contains(metrics.String(), line+"\n") {
			t.Errorf("/metrics lacks %s", line)
		}
	}
}

func TestPartialEndpointValidation(t *testing.T) {
	_, srv := startSimService(t, TenantConfig{Name: "fleet", Source: SourceConfig{Kind: "probe"}}, Config{})

	// GET on a POST-only route: the mux's method pattern rejects it.
	resp, _ := get(t, srv.URL+"/v1/fleet/partial")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET partial: code %d, want 405", resp.StatusCode)
	}

	// Garbage body fails codec validation.
	resp2, err := http.Post(srv.URL+"/v1/fleet/partial", "application/octet-stream",
		strings.NewReader("not a profile"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage partial: code %d, want 400", resp2.StatusCode)
	}

	// A body over the shared aggregator's cap is refused, not buffered.
	respBig, err := http.Post(srv.URL+"/v1/fleet/partial", "application/octet-stream",
		io.LimitReader(zeros{}, stream.MaxPartialBytes+1))
	if err != nil {
		t.Fatal(err)
	}
	bodyBig, _ := io.ReadAll(respBig.Body)
	respBig.Body.Close()
	if respBig.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(bodyBig), "exceeds") {
		t.Errorf("oversize partial: code %d body %.120q, want 413", respBig.StatusCode, bodyBig)
	}

	// A valid profile with no label and no ?probe= is rejected.
	empty := drift.NewProfile("", "", core.Partial{}, time.Unix(0, 0))
	resp3, err := http.Post(srv.URL+"/v1/fleet/partial", "application/octet-stream",
		bytes.NewReader(empty.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(string(body3), "probe label") {
		t.Errorf("unlabeled partial: code %d body %.120q, want 400 probe-label error", resp3.StatusCode, body3)
	}

	// No rejected post reached the aggregate.
	_, index := get(t, srv.URL+"/v1/")
	if !strings.Contains(string(index), `"probes": 0`) {
		t.Errorf("rejected posts changed the probe set: %s", index)
	}
}

// zeros is an endless all-zero body for the oversize-post case.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// writeCapture synthesizes a short era-1 capture file and returns its
// path and packet count.
func writeCapture(t *testing.T, d time.Duration, seed int64) (string, int) {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = d
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/era.pcap"
	if err := os.WriteFile(path, capture.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, len(tr.Records)
}

// TestFinishedPCAPTenantKeepsServingQueries: a tenant whose capture has
// been read to EOF still answers point queries from its historian — the
// store stays open until Drain — whether the graph came from the
// shorthand or is a declared pipeline.
func TestFinishedPCAPTenantKeepsServingQueries(t *testing.T) {
	path, _ := writeCapture(t, 2*time.Minute, 7)
	histRoot := t.TempDir()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"shorthand", Config{HistorianRoot: histRoot, Tenants: []TenantConfig{
			{Name: "shorthand", Source: SourceConfig{Kind: "pcap", Path: path}, Historian: true},
		}}},
		{"pipeline", Config{Pipelines: []pipeline.PipelineConfig{{Name: "pipeline", Nodes: []pipeline.NodeConfig{
			{ID: "src", Kind: "pcap", Params: json.RawMessage(fmt.Sprintf(`{"path": %q}`, path))},
			{ID: "an", Kind: "analyzer", From: []string{"src"}, Params: json.RawMessage(fmt.Sprintf(`{"historian": %q}`, histRoot+"/declared"))},
		}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// startService waits for the feed to end before returning.
			svc, srv := startService(t, tc.cfg)
			base := srv.URL + "/v1/" + tc.name

			_, body := get(t, base+"/query")
			var catalog []struct {
				Station string `json:"station"`
				IOA     uint32 `json:"ioa"`
				Samples int64  `json:"samples"`
			}
			if err := json.Unmarshal(body, &catalog); err != nil || len(catalog) < 2 {
				t.Fatalf("catalog: %v (%d points, body %.120q)", err, len(catalog), body)
			}
			pt := catalog[0]
			resp, body := get(t, fmt.Sprintf("%s/query?station=%s&ioa=%d", base, pt.Station, pt.IOA))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("point query after EOF: code %d body %.200q", resp.StatusCode, body)
			}
			var samples []struct {
				V float64 `json:"v"`
			}
			if err := json.Unmarshal(body, &samples); err != nil {
				t.Fatal(err)
			}
			if int64(len(samples)) != pt.Samples || len(samples) == 0 {
				t.Errorf("point query returned %d samples, catalog says %d", len(samples), pt.Samples)
			}

			if err := svc.Drain(); err != nil {
				t.Errorf("tenant error after drain: %v", err)
			}
			// Drain closed the store: a point nobody asked for yet (so not
			// in the response cache) cannot be read any more.
			pt = catalog[1]
			if resp, body := get(t, fmt.Sprintf("%s/query?station=%s&ioa=%d", base, pt.Station, pt.IOA)); resp.StatusCode == http.StatusOK {
				t.Errorf("point query after Drain still answers 200: %.120q", body)
			}
		})
	}
}

// referenceTenantEngine wires an engine the way newTenant did before a
// tenant became a graph — the source opened by kind, names from a
// simulated feed's topology only, the shorthand's own defaults — and is
// kept as what TestTenantGraphEquivalence compares the graph with.
func referenceTenantEngine(t *testing.T, cfg TenantConfig) (*stream.Engine, stream.Source) {
	t.Helper()
	var (
		src   stream.Source
		names map[netip.Addr]string
		err   error
	)
	switch sc := cfg.Source; sc.Kind {
	case "pcap":
		src, err = stream.NewFileSource(sc.Path)
	case "follow":
		src, err = stream.NewFollowSource(sc.Path)
	case "sim":
		year := topology.Y1
		if sc.Year == 2 {
			year = topology.Y2
		}
		scfg := scadasim.DefaultConfig(year, sc.Seed)
		if sc.Duration > 0 {
			scfg.Duration = time.Duration(sc.Duration)
		}
		sim, serr := scadasim.New(scfg)
		if serr != nil {
			t.Fatal(serr)
		}
		tr, rerr := sim.Run()
		if rerr != nil {
			t.Fatal(rerr)
		}
		src, names = stream.NewRecordSource(tr.Records, sc.Speed), core.NamesFromTopology(sim.Network())
	}
	if err != nil {
		t.Fatal(err)
	}
	snapshotEvery := time.Duration(cfg.Snapshot)
	if snapshotEvery <= 0 {
		snapshotEvery = time.Second
	}
	return stream.New(stream.Config{
		Workers:         cfg.Workers,
		SnapshotEvery:   snapshotEvery,
		IdleTimeout:     time.Duration(cfg.IdleTimeout),
		ClusterK:        cfg.ClusterK,
		ClusterSeed:     core.ClusterSeed,
		Names:           names,
		Registry:        obs.NewRegistry().With("tenant", cfg.Name),
		MaxPointSamples: cfg.PointCap,
	}), src
}

// TestTenantGraphEquivalence: a shorthand tenant — now compiled into a
// src → an graph and hosted like a declared pipeline — ends in exactly
// the state, and serves byte for byte the /profile, of the engine the
// shorthand used to wire by hand. The rows leave duration, cluster_k,
// workers and names to the shorthand's own defaults, which are not the
// segments'. The snapshot period is an hour so that both sides publish
// once, at the end, and the profiles carry the same sequence number.
func TestTenantGraphEquivalence(t *testing.T) {
	path, packets := writeCapture(t, time.Minute, 5)
	hour := Duration(time.Hour)
	for _, tc := range []TenantConfig{
		{Name: "pcap", Source: SourceConfig{Kind: "pcap", Path: path}, Workers: 2, Snapshot: hour,
			PointCap: 32, IdleTimeout: Duration(20 * time.Second)},
		{Name: "follow", Source: SourceConfig{Kind: "follow", Path: path}, Snapshot: hour, ClusterK: 3},
		{Name: "sim", Source: SourceConfig{Kind: "sim", Year: 2, Seed: 9}, Workers: 2, Snapshot: hour},
	} {
		t.Run(tc.Name, func(t *testing.T) {
			// caughtUp blocks until a tailing engine has dispatched the
			// whole capture; a finite feed ends on its own.
			caughtUp := func(e *stream.Engine) {
				for deadline := time.Now().Add(20 * time.Second); tc.Source.Kind == "follow" && e.Status().Packets < int64(packets); {
					if time.Now().After(deadline) {
						t.Fatalf("tail stuck at %d of %d packets", e.Status().Packets, packets)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}

			ref, src := referenceTenantEngine(t, tc)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- ref.Run(ctx, src) }()
			caughtUp(ref)
			if tc.Source.Kind == "follow" {
				cancel()
			}
			if err := <-done; err != nil && err != context.Canceled {
				t.Fatal(err)
			}
			cancel()
			src.Close()

			svc, err := New(Config{Tenants: []TenantConfig{tc}}, obs.NewRegistry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			svc.Start(context.Background())
			tenant := svc.Tenant(tc.Name)
			caughtUp(tenant.engine)
			if tc.Source.Kind != "follow" {
				svc.Wait()
			}
			if err := svc.Drain(); err != nil {
				t.Fatal(err)
			}

			want, got := ref.Final(), tenant.engine.Final()
			if want.Packets == 0 || (tc.Source.Kind != "sim" && want.Packets != packets) {
				t.Fatalf("reference analyzed %d packets of %d", want.Packets, packets)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("tenant final state differs from the hand-wired engine's: packets %d vs %d, asdus %d vs %d",
					got.Packets, want.Packets, got.TotalASDUs, want.TotalASDUs)
			}
			wantBody := httptest.NewRecorder()
			stream.NewProfileHandler(ref.Profile).ServeHTTP(wantBody, httptest.NewRequest("GET", "/profile", nil))
			gotBody := httptest.NewRecorder()
			svc.Handler().ServeHTTP(gotBody, httptest.NewRequest("GET", "/v1/"+tc.Name+"/profile", nil))
			if gotBody.Code != http.StatusOK || !bytes.Equal(wantBody.Body.Bytes(), gotBody.Body.Bytes()) {
				t.Errorf("/profile (code %d, %d bytes) differs from the hand-wired engine's (%d bytes)",
					gotBody.Code, gotBody.Body.Len(), wantBody.Body.Len())
			}
			// The tenant's graph is on view like a declared pipeline's, named
			// after the tenant.
			view := httptest.NewRecorder()
			svc.Handler().ServeHTTP(view, httptest.NewRequest("GET", "/v1/"+tc.Name+"/pipeline?format=text", nil))
			if view.Code != http.StatusOK || !strings.Contains(view.Body.String(), "pipeline "+tc.Name) {
				t.Errorf("/pipeline: code %d body %.200q", view.Code, view.Body.String())
			}
		})
	}
}

// connKey canonicalizes a record's unordered IP pair — the same
// partitioning the streaming engine shards by — so every packet
// between two hosts lands in the same probe slice and the per-pair
// session state merges exactly.
func connKey(src, dst netip.AddrPort) string {
	a, b := src.Addr().String(), dst.Addr().String()
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// TestFleetMergeEquivalence is the acceptance test for remote-probe
// aggregation: a capture split by connection across two probes, each
// analyzed by its own offline analyzer (profiler-as-probe) and POSTed
// to /partial, must yield a served fleet profile identical to the
// local merge, and the merged state must match a single-process
// analysis of the whole capture on every exactly-mergeable aggregate.
func TestFleetMergeEquivalence(t *testing.T) {
	cfg := scadasim.DefaultConfig(topology.Y1, 11)
	cfg.Duration = 2 * time.Minute
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	names := core.NamesFromTopology(sim.Network())

	// Split the capture by connection: probe A taps half the links,
	// probe B the other half.
	var half [2]scadasim.Trace
	for _, rec := range tr.Records {
		h := fnv.New32a()
		io.WriteString(h, connKey(rec.Src, rec.Dst))
		i := int(h.Sum32() % 2)
		half[i].Records = append(half[i].Records, rec)
	}
	if len(half[0].Records) == 0 || len(half[1].Records) == 0 {
		t.Fatal("degenerate split")
	}

	analyze := func(tr *scadasim.Trace) core.Partial {
		var buf bytes.Buffer
		if err := tr.WritePCAP(&buf); err != nil {
			t.Fatal(err)
		}
		a := core.NewAnalyzer(names)
		if err := a.ReadPCAP(&buf); err != nil {
			t.Fatal(err)
		}
		return a.Partial()
	}
	pa, pb := analyze(&half[0]), analyze(&half[1])
	full := analyze(tr)

	// Boot a probe tenant and post both partials, as profiler -push
	// would.
	_, srv := startSimService(t, TenantConfig{Name: "fleet", Source: SourceConfig{Kind: "probe"}}, Config{})
	for probe, p := range map[string]core.Partial{"siteA": pa, "siteB": pb} {
		prof := drift.NewProfile(probe, "split-capture", p, time.Unix(0, 0).UTC())
		resp, err := http.Post(srv.URL+"/v1/fleet/partial", "application/octet-stream",
			bytes.NewReader(prof.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post partial %s: code %d", probe, resp.StatusCode)
		}
	}

	// The served fleet profile must equal the local merge, byte for
	// byte (modulo JSON round-trip).
	_, body := get(t, srv.URL+"/v1/fleet/profile")
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("fleet profile: %v (body %.120q)", err, body)
	}
	merged := core.MergePartials([]core.Partial{pa, pb})
	wantProf := stream.BuildProfile(merged, 2, 0, core.ClusterSeed)
	wantProf.Workers = 2
	wantJSON, err := json.Marshal(wantProf)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	json.Unmarshal(wantJSON, &want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served fleet profile differs from local merge:\n got %.400s\nwant %.400s", body, wantJSON)
	}

	// And the merge itself must match single-process analysis of the
	// concatenated capture on every exactly-mergeable aggregate.
	if merged.Packets != full.Packets || merged.IECPackets != full.IECPackets {
		t.Errorf("packets %d/%d, want %d/%d", merged.Packets, merged.IECPackets, full.Packets, full.IECPackets)
	}
	if merged.TotalASDUs != full.TotalASDUs {
		t.Errorf("ASDUs %d, want %d", merged.TotalASDUs, full.TotalASDUs)
	}
	if !merged.First.Equal(full.First) || !merged.Last.Equal(full.Last) {
		t.Errorf("window [%v %v], want [%v %v]", merged.First, merged.Last, full.First, full.Last)
	}
	mf, ff := merged.Flows, full.Flows
	if mf.ShortLived != ff.ShortLived || mf.LongLived != ff.LongLived ||
		mf.ShortLivedSubSec != ff.ShortLivedSubSec || mf.ShortLivedOverSec != ff.ShortLivedOverSec {
		t.Errorf("flow summary %+v, want %+v", mf, ff)
	}
	if !reflect.DeepEqual(merged.TypeCounts, full.TypeCounts) {
		t.Errorf("type counts %v, want %v", merged.TypeCounts, full.TypeCounts)
	}
	mc, fc := merged.ComplianceReport(), full.ComplianceReport()
	if !reflect.DeepEqual(mc.NonCompliant, fc.NonCompliant) {
		t.Errorf("non-compliant %v, want %v", mc.NonCompliant, fc.NonCompliant)
	}
	mm, fm := merged.MarkovReport(), full.MarkovReport()
	if mm.Distribution != fm.Distribution {
		t.Errorf("markov distribution %v, want %v", mm.Distribution, fm.Distribution)
	}
	if len(merged.Features) != len(full.Features) {
		t.Errorf("%d session features, want %d", len(merged.Features), len(full.Features))
	}

	// A probe re-posting replaces its previous partial rather than
	// double counting.
	prof := drift.NewProfile("siteA", "split-capture", pa, time.Unix(0, 0).UTC())
	resp, err := http.Post(srv.URL+"/v1/fleet/partial?probe=siteA", "application/octet-stream",
		bytes.NewReader(prof.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Probes  int    `json:"probes"`
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Probes != 2 {
		t.Errorf("re-post grew probe set to %d, want 2", ack.Probes)
	}
	_, body2 := get(t, srv.URL+"/v1/fleet/profile")
	var got2 map[string]any
	json.Unmarshal(body2, &got2)
	if got2["packets"] != got["packets"] {
		t.Errorf("re-post changed packet count %v -> %v", got["packets"], got2["packets"])
	}
}

func TestConfigDuration(t *testing.T) {
	cases := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{`"30s"`, 30 * time.Second, false},
		{`"1m30s"`, 90 * time.Second, false},
		{`1000000000`, time.Second, false},
		{`"bogus"`, 0, true},
		{`true`, 0, true},
	}
	for _, tc := range cases {
		var d Duration
		err := json.Unmarshal([]byte(tc.in), &d)
		if tc.wantErr != (err != nil) {
			t.Errorf("%s: err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && time.Duration(d) != tc.want {
			t.Errorf("%s: %v, want %v", tc.in, time.Duration(d), tc.want)
		}
	}
	// Round trip.
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(out) != `"1m30s"` {
		t.Errorf("marshal: %s, %v", out, err)
	}
}

func TestServiceRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no tenants", Config{}},
		{"duplicate tenant", Config{Tenants: []TenantConfig{
			{Name: "a", Source: SourceConfig{Kind: "probe"}},
			{Name: "a", Source: SourceConfig{Kind: "probe"}},
		}}},
		{"bad tenant name", Config{Tenants: []TenantConfig{
			{Name: "a/b", Source: SourceConfig{Kind: "probe"}},
		}}},
		{"unknown source", Config{Tenants: []TenantConfig{
			{Name: "a", Source: SourceConfig{Kind: "carrier-pigeon"}},
		}}},
		{"historian without root", Config{Tenants: []TenantConfig{
			{Name: "a", Source: SourceConfig{Kind: "sim", Duration: Duration(time.Minute)}, Historian: true},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg, obs.NewRegistry(), nil); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestLoadgenAgainstService wires the loadgen library against a live
// service and sanity-checks the report: traffic flowed, nothing
// 5xx'd, and repeated profile reads hit the snapshot cache.
func TestLoadgenAgainstService(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	_, srv := startSimService(t, TenantConfig{Name: "east", Workers: 1}, Config{})

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  srv.URL,
		Tenants:  []string{"east"},
		Clients:  32,
		Duration: 1 * time.Second,
		Mix:      map[string]int{"profile": 4, "statusz": 1},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors5xx != 0 {
		t.Errorf("%d 5xx responses", rep.Errors5xx)
	}
	if rep.CacheHitRatio < 0.9 {
		t.Errorf("cache hit ratio %.3f, want > 0.9 on repeated profile reads", rep.CacheHitRatio)
	}
	var sum int64
	for _, ep := range rep.Endpoints {
		sum += ep.Requests
	}
	if sum != rep.Requests {
		t.Errorf("endpoint rows sum to %d, total says %d", sum, rep.Requests)
	}
}

// hostedGraph is a declared sim → analyzer pipeline over a short feed.
func hostedGraph(name string) pipeline.PipelineConfig {
	return pipeline.PipelineConfig{Name: name, Nodes: []pipeline.NodeConfig{
		{ID: "src", Kind: "sim", Params: json.RawMessage(`{"duration": "5s", "seed": 5}`)},
		{ID: "an", Kind: "analyzer", From: []string{"src"}, Params: json.RawMessage(`{"workers": 2}`)},
	}}
}

// TestPipelineTenant hosts a declared segment graph as a tenant: the
// tenant's profile surface must bind to the graph's analyzer, and the
// /pipeline endpoint must expose the live graph.
func TestPipelineTenant(t *testing.T) {
	_, srv := startService(t, Config{Pipelines: []pipeline.PipelineConfig{hostedGraph("hosted")}})

	resp, body := get(t, srv.URL+"/v1/hosted/profile")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: status %d: %s", resp.StatusCode, body)
	}
	var prof stream.Profile
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatalf("profile: %v", err)
	}
	if prof.Packets == 0 {
		t.Error("hosted pipeline analyzed zero packets")
	}

	resp, body = get(t, srv.URL+"/v1/hosted/pipeline?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"hosted"`)) || !bytes.Contains(body, []byte(`"analyzer"`)) {
		t.Errorf("pipeline status missing graph detail: %s", body)
	}
}

// TestPipelineTenantErrors pins the config failure modes of declared
// pipelines: tenants and pipelines share one namespace, and a graph is
// checked before anything is built. Two declared pipelines are two
// tenants.
func TestPipelineTenantErrors(t *testing.T) {
	probe := TenantConfig{Name: "a", Source: SourceConfig{Kind: "probe"}}
	broken := hostedGraph("b")
	broken.Nodes[1].From = []string{"ghost"}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"name taken by a tenant", Config{Tenants: []TenantConfig{probe}, Pipelines: []pipeline.PipelineConfig{hostedGraph("a")}},
			`pipeline "a": name taken by a tenant`},
		{"duplicate pipeline", Config{Pipelines: []pipeline.PipelineConfig{hostedGraph("b"), hostedGraph("b")}},
			"duplicate pipeline name"},
		{"dangling edge", Config{Pipelines: []pipeline.PipelineConfig{broken}}, `dangling edge: "from" references unknown segment "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg, obs.NewRegistry(), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New error = %v, want containing %q", err, tc.want)
			}
		})
	}
	svc, _ := startService(t, Config{Pipelines: []pipeline.PipelineConfig{hostedGraph("a"), hostedGraph("b")}})
	if got := svc.Tenants(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("tenants %v, want [a b]", got)
	}
	for _, name := range []string{"a", "b"} {
		if e := svc.Tenant(name).engine; e == nil || e.Final().Packets == 0 {
			t.Errorf("tenant %s analyzed nothing", name)
		}
	}
}

// TestDeclaredProfileMatchesGraphMount: a declared pipeline's tenant
// serves, after its capture is finished, the same /v1/{p}/profile bytes
// as its analyzer's own mount at /pipelines/{p}/an/profile, which the
// daemon's Endpoints carry next to the /v1 tree; the combined /statusz
// lists every tenant's graph.
func TestDeclaredProfileMatchesGraphMount(t *testing.T) {
	path, packets := writeCapture(t, time.Minute, 3)
	cfg := Config{
		Tenants: []TenantConfig{{Name: "short", Source: SourceConfig{Kind: "pcap", Path: path}}},
		Pipelines: []pipeline.PipelineConfig{{Name: "era", Nodes: []pipeline.NodeConfig{
			{ID: "src", Kind: "pcap", Params: json.RawMessage(fmt.Sprintf(`{"path": %q}`, path))},
			{ID: "an", Kind: "analyzer", From: []string{"src"}},
		}}},
	}
	svc, _ := startService(t, cfg)
	srv := httptest.NewServer(obs.HandlerWith(obs.NewRegistry(), nil, svc.Endpoints()))
	defer srv.Close()

	_, v1 := get(t, srv.URL+"/v1/era/profile")
	_, mount := get(t, srv.URL+"/pipelines/era/an/profile")
	var prof stream.Profile
	if err := json.Unmarshal(v1, &prof); err != nil || prof.Packets != packets {
		t.Fatalf("/v1/era/profile: %d packets of %d (%v)", prof.Packets, packets, err)
	}
	if !bytes.Equal(v1, mount) {
		t.Errorf("/v1/era/profile (%d bytes) differs from /pipelines/era/an/profile (%d bytes)", len(v1), len(mount))
	}
	var sts []pipeline.PipelineStatus
	_, body := get(t, srv.URL+"/statusz?format=json")
	if err := json.Unmarshal(body, &sts); err != nil || len(sts) != 2 || sts[0].Name != "short" || sts[1].Name != "era" {
		t.Errorf("/statusz lists %+v (%v), want the short and era graphs", sts, err)
	}
}

// TestOneGraphHostsEveryTenant: the service hosts one graph whose
// pipelines are its tenants', in config order; a tenant's /pipeline is
// that graph's view of its pipeline; and a tenant whose ingest fails is
// named in Drain's error while the others keep their final profiles.
func TestOneGraphHostsEveryTenant(t *testing.T) {
	path, packets := writeCapture(t, time.Minute, 3)
	capture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.pcap")
	if err := os.WriteFile(cut, capture[:len(capture)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _ := startService(t, Config{
		Tenants: []TenantConfig{
			{Name: "whole", Source: SourceConfig{Kind: "pcap", Path: path}},
			{Name: "fleet", Source: SourceConfig{Kind: "probe"}},
			{Name: "cut", Source: SourceConfig{Kind: "pcap", Path: cut}},
		},
		Pipelines: []pipeline.PipelineConfig{hostedGraph("declared")},
	})
	srv := httptest.NewServer(obs.HandlerWith(obs.NewRegistry(), nil, svc.Endpoints()))
	defer srv.Close()

	var sts []pipeline.PipelineStatus
	_, body := get(t, srv.URL+"/statusz?format=json")
	if err := json.Unmarshal(body, &sts); err != nil {
		t.Fatalf("/statusz: %v: %.200q", err, body)
	}
	var names []string
	for _, st := range sts {
		names = append(names, st.Name)
	}
	if want := []string{"whole", "cut", "declared"}; !reflect.DeepEqual(names, want) {
		t.Errorf("/statusz lists %v, want %v", names, want)
	}
	for _, name := range names {
		resp, v1 := get(t, srv.URL+"/v1/"+name+"/pipeline?format=json")
		_, mount := get(t, srv.URL+"/pipelines/"+name+"/statusz?format=json")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(v1, mount) {
			t.Errorf("/v1/%s/pipeline (code %d) differs from /pipelines/%s/statusz:\n%s\nvs\n%s", name, resp.StatusCode, name, v1, mount)
		}
	}
	if resp, _ := get(t, srv.URL+"/v1/fleet/pipeline"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("probe-only tenant's /pipeline: code %d, want 404", resp.StatusCode)
	}

	err = svc.Drain()
	if err == nil || !strings.Contains(err.Error(), "pipeline cut segment ") {
		t.Fatalf("Drain() = %v, want the cut tenant's failure", err)
	}
	for _, name := range []string{"whole", "declared"} {
		if strings.Contains(err.Error(), "pipeline "+name+" ") {
			t.Errorf("Drain() names healthy tenant %s: %v", name, err)
		}
	}
	var prof stream.Profile
	if _, body := get(t, srv.URL+"/v1/whole/profile"); json.Unmarshal(body, &prof) != nil || prof.Packets != packets {
		t.Errorf("/v1/whole/profile after the drain: %d packets of %d", prof.Packets, packets)
	}
}

// openUnder lists the files under dir this process holds open, read
// from /proc/self/fd; the test skips where that does not exist.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestNewClosesBuiltTenantsOnFailure: a tenant whose graph fails to
// build fails New, and every tenant built before it is closed — here
// east's historian namespace, which one process may have open at a
// time.
func TestNewClosesBuiltTenantsOnFailure(t *testing.T) {
	root := t.TempDir()
	sim := SourceConfig{Kind: "sim", Year: 1, Seed: 7, Duration: Duration(5 * time.Second)}
	_, err := New(Config{HistorianRoot: root, Tenants: []TenantConfig{
		{Name: "east", Source: sim, Historian: true},
		{Name: "west", Source: sim, BaselinePath: filepath.Join(root, "missing.prof")},
	}}, obs.NewRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "pipeline west segment an") {
		t.Fatalf("New = %v, want west's analyzer to fail", err)
	}
	if open := openUnder(t, root); len(open) > 0 {
		t.Errorf("failed New left %d files open: %v", len(open), open)
	}
}
