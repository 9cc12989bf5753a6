package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/stream"
)

// testTenant builds a bare tenant (no engine) plus a caching service
// around it, for exercising the cached middleware in isolation.
func testTenant(cacheMax int) (*Service, *Tenant) {
	reg := obs.NewRegistry()
	treg := reg.With("tenant", "t1")
	s := &Service{cache: NewCache(cacheMax), reg: reg}
	t := &Tenant{
		name:        "t1",
		cacheHits:   treg.Counter("uncharted_service_cache_hits_total"),
		cacheMisses: treg.Counter("uncharted_service_cache_misses_total"),
	}
	return s, t
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.put(&cacheEntry{key: "a", version: "1"})
	c.put(&cacheEntry{key: "b", version: "1"})
	if _, ok := c.get("a", "1"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.put(&cacheEntry{key: "c", version: "1"}) // evicts b
	if _, ok := c.get("b", "1"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a", "1"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c", "1"); !ok {
		t.Error("c should be present")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

// TestCacheKeyDistinct: a document — (tenant, endpoint, raw query) —
// has one key whatever its version, distinct documents have distinct
// keys, and every (document, version) has its own quoted ETag.
func TestCacheKeyDistinct(t *testing.T) {
	keys := map[string]string{}  // key → the document that produced it
	etags := map[string]string{} // etag → the (document, version) that produced it
	for _, tc := range []struct{ tenant, ep, ver, query string }{
		{"a", "profile", "1", ""},
		{"a", "profile", "2", ""},
		{"a", "profile", "1", "format=text"},
		{"a", "drift", "1", ""},
		{"b", "profile", "1", ""},
		{"a", "profile", "", "1"}, // a version must not read as a query
	} {
		doc := fmt.Sprintf("%q/%q?%q", tc.tenant, tc.ep, tc.query)
		key := cacheKey(tc.tenant, tc.ep, tc.query)
		if prev, seen := keys[key]; seen && prev != doc {
			t.Errorf("key collision: %s vs %s", prev, doc)
		}
		keys[key] = doc
		etag := newETag(tc.tenant, tc.ep, tc.ver, tc.query)
		if prev, dup := etags[etag]; dup {
			t.Errorf("etag collision: %s vs %s@%s", prev, doc, tc.ver)
		}
		etags[etag] = doc + "@" + tc.ver
		if len(etag) < 3 || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
			t.Errorf("etag %q not quoted", etag)
		}
	}
	if len(keys) != 5 {
		t.Errorf("%d keys for 5 documents", len(keys))
	}
	if cacheKey("a", "profile", "") != cacheKey("a", "profile", "") ||
		newETag("a", "profile", "1", "") != newETag("a", "profile", "1", "") {
		t.Error("cacheKey / newETag not deterministic")
	}
}

// TestCacheSupersededVersionReplaced: a new version of a document
// takes its predecessor's slot, so the cache holds one entry per URL
// however many snapshots have been published; an entry of another
// version is a miss, and storing an old version late never lets it be
// served as the current one.
func TestCacheSupersededVersionReplaced(t *testing.T) {
	s, tn := testTenant(64)
	var version atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintf(w, "v%d?%s", version.Load(), req.URL.RawQuery)
	})
	h := s.cached(tn, "profile", func() string { return fmt.Sprint(version.Load()) }, inner)
	queries := []string{"", "format=text", "station=O29&ioa=3001"}
	for v := 1; v <= 100; v++ {
		version.Store(int64(v))
		for _, q := range queries {
			for _, wantCache := range []string{"miss", "hit"} {
				req := httptest.NewRequest("GET", "/v1/t1/profile", nil)
				req.URL.RawQuery = q
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if got, want := rr.Body.String(), fmt.Sprintf("v%d?%s", v, q); got != want {
					t.Fatalf("version %d query %q: body %q, want %q", v, q, got, want)
				}
				if got := rr.Header().Get("X-Cache"); got != wantCache {
					t.Fatalf("version %d query %q: X-Cache %q, want %q", v, q, got, wantCache)
				}
			}
		}
		if got := s.cache.Len(); got != len(queries) {
			t.Fatalf("after version %d: %d entries, want %d", v, got, len(queries))
		}
	}

	c := NewCache(4)
	c.put(&cacheEntry{key: "k", version: "2", body: []byte("new")})
	if _, ok := c.get("k", "1"); ok {
		t.Error("version 2 entry served as version 1")
	}
	c.put(&cacheEntry{key: "k", version: "1", body: []byte("old")}) // a slow render finishing late
	if e, ok := c.get("k", "2"); ok {
		t.Errorf("late put of version 1 hit under version 2: %q", e.body)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestCachedInvalidation is the table-driven cache correctness test:
// a new snapshot (version bump) must invalidate stale responses —
// the ETag changes and the body reflects the new snapshot — while
// repeat reads of one version hit.
func TestCachedInvalidation(t *testing.T) {
	s, tn := testTenant(16)
	var version atomic.Int64
	version.Store(1)
	var renders atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		renders.Add(1)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, `{"snapshot":%d,"query":%q}`, version.Load(), req.URL.RawQuery)
	})
	h := s.cached(tn, "profile", func() string { return fmt.Sprint(version.Load()) }, inner)

	get := func(query, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/v1/t1/profile", nil)
		req.URL.RawQuery = query
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	steps := []struct {
		name      string
		bump      bool   // publish a new snapshot first
		query     string // raw query
		wantCache string // expected X-Cache
		wantBody  string // expected body substring
	}{
		{name: "first read misses", query: "", wantCache: "miss", wantBody: `"snapshot":1`},
		{name: "repeat read hits", query: "", wantCache: "hit", wantBody: `"snapshot":1`},
		{name: "distinct query misses", query: "format=json", wantCache: "miss", wantBody: `"snapshot":1`},
		{name: "new snapshot invalidates", bump: true, query: "", wantCache: "miss", wantBody: `"snapshot":2`},
		{name: "new snapshot re-hits", query: "", wantCache: "hit", wantBody: `"snapshot":2`},
	}
	var etags []string
	for _, st := range steps {
		if st.bump {
			version.Add(1)
		}
		rr := get(st.query, "")
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: code %d", st.name, rr.Code)
		}
		if got := rr.Header().Get("X-Cache"); got != st.wantCache {
			t.Errorf("%s: X-Cache %q, want %q", st.name, got, st.wantCache)
		}
		if body := rr.Body.String(); !strings.Contains(body, st.wantBody) {
			t.Errorf("%s: body %q missing %q", st.name, body, st.wantBody)
		}
		if et := rr.Header().Get("ETag"); et == "" {
			t.Errorf("%s: no ETag", st.name)
		} else {
			etags = append(etags, et)
		}
	}
	// Same-version reads share an ETag; a new snapshot changes it.
	if etags[0] != etags[1] {
		t.Errorf("repeat read changed ETag: %q vs %q", etags[0], etags[1])
	}
	if etags[0] == etags[3] {
		t.Errorf("new snapshot kept stale ETag %q", etags[0])
	}

	// A matching If-None-Match yields 304 with no body.
	rr := get("", etags[4])
	if rr.Code != http.StatusNotModified {
		t.Errorf("If-None-Match: code %d, want 304", rr.Code)
	}
	if rr.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", rr.Body.String())
	}

	// The stale ETag no longer matches — full 200 response.
	rr = get("", etags[0])
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"snapshot":2`) {
		t.Errorf("stale If-None-Match: code %d body %q, want 200 with snapshot 2", rr.Code, rr.Body.String())
	}

	// The version-1 rendering of the other query is still stored, but
	// stale: it must not be served, even to its own validator.
	before := renders.Load()
	rr = get("format=json", etags[2])
	if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" ||
		rr.Header().Get("ETag") == etags[2] || !strings.Contains(rr.Body.String(), `"snapshot":2`) {
		t.Errorf("stale entry: code %d X-Cache %q ETag %q body %q, want a fresh 200",
			rr.Code, rr.Header().Get("X-Cache"), rr.Header().Get("ETag"), rr.Body.String())
	}
	if renders.Load() != before+1 {
		t.Errorf("stale entry read rendered %d times, want 1", renders.Load()-before)
	}
}

// TestCachedMissConditional: a miss whose fresh render carries the
// very ETag the client sent (its entry was evicted, the version did
// not move) is a 304 with no body — and the entry is stored again.
func TestCachedMissConditional(t *testing.T) {
	s, tn := testTenant(1)
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "doc %s", req.URL.RawQuery)
	})
	h := s.cached(tn, "query", func() string { return "7" }, inner)
	get := func(query, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/v1/t1/query?"+query, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	etag := get("a", "").Header().Get("ETag")
	get("b", "") // capacity 1: evicts a
	rr := get("a", etag)
	if rr.Code != http.StatusNotModified || rr.Body.Len() != 0 {
		t.Errorf("evicted + matching validator: code %d body %q, want empty 304", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache %q, want miss", got)
	}
	if got := rr.Header().Get("ETag"); got != etag {
		t.Errorf("304 ETag %q, want %q", got, etag)
	}
	if rr = get("a", ""); rr.Header().Get("X-Cache") != "hit" || rr.Body.String() != "doc a" {
		t.Errorf("after the 304 miss: X-Cache %q body %q, want the entry stored", rr.Header().Get("X-Cache"), rr.Body.String())
	}
	// A validator that does not match still gets the body on a miss.
	get("b", "")
	if rr = get("a", `"other"`); rr.Code != http.StatusOK || rr.Body.String() != "doc a" {
		t.Errorf("miss + foreign validator: code %d body %q", rr.Code, rr.Body.String())
	}
}

// TestDriftCachedUnderReportSeq: a tenant's /drift is cached under the
// seq of the report it serves, not under the published profile's. The
// engine stores a snapshot's profile before the drift watch stores that
// snapshot's report; a read in between renders the older report, and
// cached under the profile's seq it would be served for good once a
// finished capture stops publishing.
func TestDriftCachedUnderReportSeq(t *testing.T) {
	// A real tenant: the route exists with a baseline and is keyed on
	// the watch's seq.
	base := filepath.Join(t.TempDir(), "base.prof")
	if err := drift.SaveProfile(base, drift.NewProfile("empty", "test", core.Partial{}, time.Unix(0, 0).UTC())); err != nil {
		t.Fatal(err)
	}
	svc, srv := startSimService(t, TenantConfig{Name: "east", BaselinePath: base}, Config{})
	resp, body := get(t, srv.URL+"/v1/east/drift")
	rep, seq := svc.runner.Segment("east", "an").(*pipeline.AnalyzerSegment).Drift()
	if resp.StatusCode != http.StatusOK || rep == nil || len(rep.Findings) == 0 {
		t.Fatalf("/drift: %d %.80q, report %v", resp.StatusCode, body, rep)
	}
	if etag := resp.Header.Get("ETag"); !strings.HasPrefix(etag, fmt.Sprintf(`"east-drift-%d-`, seq)) {
		t.Errorf("ETag %s not keyed on the report's seq %d", etag, seq)
	}

	// The watch one seq behind the published profile (seq 8).
	s, tn := testTenant(16)
	type state struct {
		rep *drift.DriftReport
		seq int
	}
	var cur atomic.Pointer[state]
	latest := func() (*drift.DriftReport, int) { st := cur.Load(); return st.rep, st.seq }
	h := s.cached(tn, "drift", driftVersion(latest), http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rep, _ := latest()
		rep.WriteJSON(w)
	}))
	check := func(wantCache string, seq int, wantFindings int) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/t1/drift", nil))
		var served drift.DriftReport
		if err := json.Unmarshal(rr.Body.Bytes(), &served); err != nil || rr.Code != http.StatusOK {
			t.Fatalf("code %d body %.80q: %v", rr.Code, rr.Body.String(), err)
		}
		if got := rr.Header().Get("X-Cache"); got != wantCache {
			t.Errorf("X-Cache %s, want %s", got, wantCache)
		}
		if etag := rr.Header().Get("ETag"); !strings.HasPrefix(etag, fmt.Sprintf(`"t1-drift-%d-`, seq)) {
			t.Errorf("ETag %s, want the report's seq %d", etag, seq)
		}
		if len(served.Findings) != wantFindings {
			t.Errorf("served %d findings, want %d", len(served.Findings), wantFindings)
		}
	}
	cur.Store(&state{rep: &drift.DriftReport{}, seq: 7})
	check("miss", 7, 0)
	check("hit", 7, 0)
	// The report of seq 8 lands: the cached seq-7 rendering is stale.
	cur.Store(&state{rep: &drift.DriftReport{Findings: []drift.Finding{{Kind: drift.FindEndpointAdded, Subject: "O50"}}}, seq: 8})
	check("miss", 8, 1)
	check("hit", 8, 1)
}

func TestCachedSkipsNon200(t *testing.T) {
	s, tn := testTenant(16)
	var calls atomic.Int64
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "not yet", http.StatusServiceUnavailable)
	})
	h := s.cached(tn, "profile", func() string { return "1" }, inner)
	for i := 0; i < 3; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("code %d", rr.Code)
		}
		if rr.Header().Get("ETag") != "" {
			t.Error("503 must not carry an ETag")
		}
	}
	if calls.Load() != 3 {
		t.Errorf("inner called %d times, want 3 (non-200 must not cache)", calls.Load())
	}
	if s.cache.Len() != 0 {
		t.Errorf("cache holds %d entries after non-200s", s.cache.Len())
	}
}

// TestNonFiniteProfileNotCached: a profile holding a measurement
// encoding/json refuses is a 500 naming the encoding error, on /profile
// and /fleet alike, and nothing is stored under the version's ETag.
func TestNonFiniteProfileNotCached(t *testing.T) {
	s, tn := testTenant(16)
	prof := &stream.Profile{Seq: 1, Physical: []stream.PhysicalPoint{{Station: "O29", IOA: 3001, Count: 2, Mean: math.NaN()}}}
	for _, endpoint := range []string{"profile", "fleet"} {
		h := s.cached(tn, endpoint, func() string { return "1" }, stream.NewProfileHandler(func() *stream.Profile { return prof }))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/"+endpoint, nil))
		if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "NaN") {
			t.Errorf("%s: %d %q, want a 500 naming the NaN", endpoint, rr.Code, rr.Body.String())
		}
		if rr.Header().Get("ETag") != "" {
			t.Errorf("%s: a 500 carries ETag %s", endpoint, rr.Header().Get("ETag"))
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after failed renders", n)
	}
}

// TestCachedETagNamesRenderedVersion: a publish can land between the
// version read and the render, so the render shows content the version
// read before it does not name. Such a response must never go out, or
// be stored, under that version's ETag: once an idle tenant stops
// publishing, a wrongly filed entry would be served until the next
// packet arrives. The handler publishes at the start of its first one
// or two renders, or of every render; each response must carry either
// no ETag or the ETag of the version its body shows, and a render the
// version held still for is tagged, stored and answers a conditional
// read with 304.
func TestCachedETagNamesRenderedVersion(t *testing.T) {
	const every = -1
	for _, publishes := range []int64{0, 1, 2, every} {
		t.Run(fmt.Sprint(publishes), func(t *testing.T) {
			s, tn := testTenant(16)
			var version, renders atomic.Int64
			version.Store(1)
			inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if n := renders.Add(1); publishes == every || n <= publishes {
					version.Add(1)
				}
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				fmt.Fprintf(w, `{"snapshot":%d}`, version.Load())
			})
			h := s.cached(tn, "profile", func() string { return fmt.Sprint(version.Load()) }, inner)
			get := func(inm string) *httptest.ResponseRecorder {
				req := httptest.NewRequest("GET", "/v1/t1/profile", nil)
				if inm != "" {
					req.Header.Set("If-None-Match", inm)
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				return rr
			}
			var tagged string
			for i := 0; i < 3; i++ {
				rr := get("")
				var v int64
				if _, err := fmt.Sscanf(rr.Body.String(), `{"snapshot":%d}`, &v); err != nil || rr.Code != http.StatusOK {
					t.Fatalf("read %d: code %d body %q", i, rr.Code, rr.Body.String())
				}
				etag := rr.Header().Get("ETag")
				if etag == "" {
					if publishes != every {
						t.Errorf("read %d (version %d) carries no ETag", i, v)
					}
					continue
				}
				if want := fmt.Sprintf(`"t1-profile-%d-`, v); !strings.HasPrefix(etag, want) {
					t.Errorf("read %d: body of version %d served under ETag %s", i, v, etag)
				}
				tagged = etag
			}
			if publishes == every {
				if n := s.cache.Len(); n != 0 {
					t.Errorf("%d entries stored while every render published", n)
				}
				return
			}
			if rr := get(tagged); rr.Code != http.StatusNotModified || rr.Header().Get("X-Cache") != "hit" {
				t.Errorf("conditional read: code %d X-Cache %q, want 304 hit", rr.Code, rr.Header().Get("X-Cache"))
			}
		})
	}
}

// TestCachedConcurrentReaders hammers the cached handler from many
// goroutines while snapshots keep publishing, asserting no reader ever
// observes a torn response: every body must exactly match the
// canonical rendering of some version, and the ETag must be consistent
// with that body. Run with -race this also proves the cache itself is
// data-race free.
func TestCachedConcurrentReaders(t *testing.T) {
	s, tn := testTenant(8)
	var version atomic.Int64
	version.Store(1)
	canonical := func(v int64) string {
		return fmt.Sprintf(`{"snapshot":%d,"payload":%q}`, v, strings.Repeat("x", 1024+int(v)%7))
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// Write in several chunks so a torn copy would be detectable.
		v := version.Load()
		body := canonical(v)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		for i := 0; i < len(body); i += 100 {
			end := i + 100
			if end > len(body) {
				end = len(body)
			}
			w.Write([]byte(body[i:end]))
		}
	})
	h := s.cached(tn, "profile", func() string { return fmt.Sprint(version.Load()) }, inner)

	const readers = 8
	const reads = 400
	stop := make(chan struct{})
	go func() {
		for i := 0; i < 40; i++ {
			version.Add(1)
		}
		close(stop)
	}()
	var wg sync.WaitGroup
	errs := make(chan string, readers*4)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
				body := rr.Body.String()
				var v int64
				if _, err := fmt.Sscanf(body, `{"snapshot":%d`, &v); err != nil {
					select {
					case errs <- fmt.Sprintf("unparseable body %.60q", body):
					default:
					}
					continue
				}
				if body != canonical(v) {
					select {
					case errs <- fmt.Sprintf("torn response for version %d: %.60q", v, body):
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	<-stop
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
