package service

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
)

// Cache is the snapshot/query response cache: a mutex-guarded LRU
// holding one fully rendered HTTP response per document, where a
// document is (tenant, endpoint, raw query). The snapshot version the
// response was rendered from is a field of the entry, not part of the
// key: get hits only while that version is still the current one, and
// the re-render a stale entry causes overwrites it in place. So a
// newly published snapshot invalidates all of a tenant's hot entries
// at once — the next reader of each misses, renders once, and every
// later read is served from memory without touching the analyzer —
// and a superseded document is released the moment its successor is
// stored instead of waiting to fall off the LRU tail. Entries hold
// immutable byte slices, so concurrent readers can never observe a
// torn response.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
}

// cacheEntry is one rendered response.
type cacheEntry struct {
	key     string
	version string
	etag    string
	ctype   string
	body    []byte
}

// NewCache builds a cache holding at most max rendered responses;
// max <= 0 picks the 4096-entry default.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 4096
	}
	return &Cache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns key's entry if it was rendered from version, promoting
// it to most recently used. An entry of any other version is a miss
// and stays where it is until the re-render's put replaces it.
func (c *Cache) get(key, version string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.version != version {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e, true
}

// put stores e as the one entry for its key, replacing whatever
// version was there, and evicts from the LRU tail when over capacity.
func (c *Cache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
}

// Len reports the live entry count; a nil cache (caching disabled)
// holds nothing.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheKey names one cached document.
func cacheKey(tenant, endpoint, rawQuery string) string {
	return tenant + "\x00" + endpoint + "\x00" + rawQuery
}

// newETag builds the strong validator of one document at one version:
// readable up to the version, then a hash that also covers the query.
func newETag(tenant, endpoint, version, rawQuery string) string {
	h := fnv.New64a()
	h.Write([]byte(tenant + "\x00" + endpoint + "\x00" + version + "\x00" + rawQuery))
	return fmt.Sprintf("%q", fmt.Sprintf("%s-%s-%s-%016x", tenant, endpoint, version, h.Sum64()))
}

// serve answers req from the entry: 304 when the request's validator
// is the entry's ETag, the stored body otherwise.
func (e *cacheEntry) serve(w http.ResponseWriter, req *http.Request) {
	h := w.Header()
	h.Set("ETag", e.etag)
	if e.ctype != "" {
		h.Set("Content-Type", e.ctype)
	}
	if req.Header.Get("If-None-Match") == e.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write(e.body)
}

// recorder captures an inner handler's status and body for caching;
// headers go straight into the real response's. The JSON renderers
// hand over a whole document in one Write, so the first append
// allocates the body at its final size.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { r.body = append(r.body, p...); return len(p), nil }

// maxRenders bounds how often one miss renders its document while the
// version keeps moving under it; the last render is then served
// without being stored or tagged.
const maxRenders = 3

// cached wraps a query handler with the snapshot cache. version must
// return a string that changes whenever the underlying data does —
// the engine's published snapshot sequence — and never returns to an
// earlier value, so hot reads of the current snapshot are served
// straight from memory and the first read after a new snapshot
// replaces the document it supersedes. A render is stored and tagged
// only when version reads the same after it as before it: a publish
// landing mid-render would otherwise file the new content under the
// old version (or the old under the new), where it would stay until
// the next publish. Only 200 responses to GET/HEAD are stored; a
// request whose If-None-Match is the document's ETag gets 304 with no
// body, whether the document came from the cache or was just rendered.
// The X-Cache header says hit or miss, which is how cmd/loadgen
// measures the hit ratio from outside. The route patterns carry the
// method, so only GET and HEAD get here.
func (s *Service) cached(t *Tenant, endpoint string, version func() string, inner http.Handler) http.Handler {
	if s.cache == nil {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ver, key := version(), cacheKey(t.name, endpoint, req.URL.RawQuery)
		if e, ok := s.cache.get(key, ver); ok {
			t.cacheHits.Inc()
			w.Header().Set("X-Cache", "hit")
			e.serve(w, req)
			return
		}
		t.cacheMisses.Inc()
		rec := &recorder{hdr: w.Header()}
		stable := false
		for renders := 1; ; renders++ {
			rec.code, rec.body = http.StatusOK, rec.body[:0]
			inner.ServeHTTP(rec, req)
			now := version()
			if stable = now == ver; stable || rec.code != http.StatusOK || renders == maxRenders {
				break
			}
			ver = now
		}
		rec.hdr.Set("X-Cache", "miss")
		if rec.code != http.StatusOK || !stable {
			w.WriteHeader(rec.code)
			w.Write(rec.body)
			return
		}
		e := &cacheEntry{
			key: key, version: ver, etag: newETag(t.name, endpoint, ver, req.URL.RawQuery),
			ctype: rec.hdr.Get("Content-Type"), body: rec.body,
		}
		s.cache.put(e)
		e.serve(w, req)
	})
}
