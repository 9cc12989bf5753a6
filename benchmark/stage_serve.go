package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"uncharted/benchmark/refkernel"
	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
	"uncharted/internal/service"
	"uncharted/internal/stream"
)

// Endpoint classes of the request mix.
const (
	epPartial = iota // POST /v1/probeN/partial
	epProfileJSON
	epProfileText
	epQuery
	epProbeFleet
	epLiveFleet
	epStatusz
	epDrift
	epProbeProfile
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"partial", "profile_json", "profile_text", "query", "probe_fleet", "live_fleet", "statusz", "drift", "probe_profile",
}

// getMix is the weighted GET mix of one epoch (the POST is always its
// first request). Queries dominate, as on a control-room wall that
// plots point histories next to the rolling profile.
var getMix = [numEndpoints]int{
	epProfileJSON: 12, epProfileText: 5, epQuery: 48, epProbeFleet: 10,
	epLiveFleet: 5, epStatusz: 5, epDrift: 7, epProbeProfile: 8,
}

// probesPerTenant is how many remote probes post to one probe tenant;
// each POST replaces that probe's partial and bumps the fleet version.
const probesPerTenant = 4

// fleetInputs is what boots a fleet: the tenant capture, the stored
// baseline profile and the partials the probes post.
type fleetInputs struct {
	CapturePath  string
	BaselinePath string
	// ProbeBodies are the drift-codec profiles the probes POST, one per
	// probe; ProbePartials is what each decodes to. The probes are taps
	// on disjoint parts of the network: the warm-up capture split by
	// unordered IP pair, the way per-substation taps would see it.
	ProbeBodies   [probesPerTenant][]byte
	ProbePartials [probesPerTenant]core.Partial
	Packets       int
}

// prepareFleetInputs derives the serve stage's inputs from the warm-up
// capture: its serial analysis is the tenants' expected state and the
// stored baseline; its IP-pair shards are the probes' partials.
func prepareFleetInputs(dir, capturePath string, data []byte, protocols []string, ref *core.Analyzer) (*fleetInputs, error) {
	whole := core.MergePartials([]core.Partial{ref.Partial()})
	fi := &fleetInputs{
		CapturePath:  capturePath,
		BaselinePath: filepath.Join(dir, "baseline.drift"),
		Packets:      whole.Packets,
	}
	saved := time.Unix(0, 0).UTC()
	if err := drift.SaveProfile(fi.BaselinePath, drift.NewProfile("baseline", capturePath, whole, saved)); err != nil {
		return nil, err
	}
	pkts, err := decodePackets(data, whole.Packets)
	if err != nil {
		return nil, err
	}
	var taps [probesPerTenant]*core.Analyzer
	for i := range taps {
		if taps[i], err = newAnalyzer(protocols); err != nil {
			return nil, err
		}
	}
	for i := range pkts {
		taps[pairShard(pkts[i], probesPerTenant)].FeedPacket(pkts[i])
	}
	for i, tap := range taps {
		fi.ProbeBodies[i] = drift.NewProfile("p"+strconv.Itoa(i), capturePath, tap.Partial(), saved).Encode()
		// Decode so expected fleet documents are built from exactly what
		// the service will hold.
		dec, err := drift.DecodeProfile(fi.ProbeBodies[i])
		if err != nil {
			return nil, err
		}
		fi.ProbePartials[i] = dec.Partial
	}
	return fi, nil
}

// pairShard assigns a packet to one of n taps by its unordered IP pair,
// so both directions of every flow — and every reconnect between the
// same two hosts — land on the same tap.
func pairShard(pkt pcap.Packet, n int) int {
	a, b := pkt.IP.Src, pkt.IP.Dst
	if b.Compare(a) < 0 {
		a, b = b, a
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, by := range a.As16() {
		h = (h ^ uint64(by)) * 1099511628211
	}
	for _, by := range b.As16() {
		h = (h ^ uint64(by)) * 1099511628211
	}
	return int(h % uint64(n))
}

// fleetConfig hosts, per client, one live tenant (a tailed capture
// with historian and drift baseline — tailing keeps its store open,
// which a finished pcap tenant's is not) and one probe tenant.
func fleetConfig(fi *fleetInputs, histRoot string) service.Config {
	cfg := service.Config{HistorianRoot: histRoot}
	for c := 0; c < serveClients; c++ {
		cfg.Tenants = append(cfg.Tenants,
			service.TenantConfig{
				Name:     "live" + strconv.Itoa(c),
				Source:   service.SourceConfig{Kind: "follow", Path: fi.CapturePath},
				Workers:  1,
				Snapshot: service.Duration(tenantSnapshot),
				ClusterK: clusterK, Historian: true, BaselinePath: fi.BaselinePath,
			},
			service.TenantConfig{Name: "probe" + strconv.Itoa(c), Source: service.SourceConfig{Kind: "probe"}},
		)
	}
	return cfg
}

// bootFleet builds and starts the service and waits until every tenant
// is ready and has ingested the whole capture.
func bootFleet(fi *fleetInputs, histRoot string) (*service.Service, error) {
	svc, err := service.New(fleetConfig(fi, histRoot), nil, nil)
	if err != nil {
		return nil, err
	}
	svc.Start(context.Background())
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ok, _ := svc.Ready(); ok && fleetCaughtUp(svc, fi.Packets) {
			return svc, nil
		}
		if time.Now().After(deadline) {
			svc.Drain()
			_, why := svc.Ready()
			return nil, fmt.Errorf("fleet not ready after 30s: %s", why)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleetCaughtUp reports whether every live tenant's published profile
// covers the whole capture.
func fleetCaughtUp(svc *service.Service, packets int) bool {
	for c := 0; c < serveClients; c++ {
		w := &respWriter{}
		req, _ := http.NewRequest(http.MethodGet, "/v1/live"+strconv.Itoa(c)+"/profile", nil)
		svc.Handler().ServeHTTP(w, req)
		var doc struct {
			Packets int `json:"packets"`
		}
		if w.code != http.StatusOK || json.Unmarshal(w.body, &doc) != nil || doc.Packets != packets {
			return false
		}
	}
	return true
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = http.StatusOK
	w.body = w.body[:0]
}

func (w *respWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(p []byte) (int, error) { w.body = append(w.body, p...); return len(p), nil }

// target is one distinct URL a client requests.
type target struct {
	ep   int
	req  *http.Request
	etag string // last ETag seen for this URL
	// want is the body this URL must return when known up front
	// (historian queries); first is the first 200 body seen under
	// firstTag, which every later response with that tag must equal.
	want     []byte
	first    []byte
	firstTag string
}

// client is one closed-loop control-room consumer with its own seeded
// script, tenants and tallies.
type client struct {
	id      int
	rng     *rand.Rand
	zipf    *rand.Zipf
	handler http.Handler
	w       respWriter
	byEP    [numEndpoints][]*target
	pick    []int // endpoint per unit of mix weight
	posts   int
	bodies  [probesPerTenant][]byte

	requests, failed int
	slow             int // responses over serveLimitMS
	hits, misses     int
	notModified      int
	conditional      int
	allMS            []float64
	missMS           [numEndpoints][]float64
	hitUS            []float64
	postMS           []float64
	problems         []string
	fleetSeen        map[int][]byte // probe fleet version → body
}

// queryKey is one of the queryKeys distinct historian reads — a point
// and a time window — as the URL query that asks for it and the body
// that must come back.
type queryKey struct {
	rawQuery string
	want     []byte
}

// queryKeySpace spreads queryKeys over the reference analysis's IEC 104
// series (the only ones the historian records) and equal windows of
// the capture. Built once per run: the clients share it read-only.
func queryKeySpace(ref *core.Analyzer) []queryKey {
	var series []*physical.Series
	for _, s := range ref.Physical().All() {
		if s.Type.Proto() == protocol.IEC104 {
			series = append(series, s)
		}
	}
	if len(series) == 0 {
		return nil
	}
	first, last := ref.CaptureWindow()
	windows := (queryKeys + len(series) - 1) / len(series)
	span := last.Sub(first) / time.Duration(windows)
	keys := make([]queryKey, 0, queryKeys)
	for w := 0; w < windows; w++ {
		from, to := first.Add(time.Duration(w)*span), first.Add(time.Duration(w+1)*span)
		for _, s := range series[:min(len(series), queryKeys-len(keys))] {
			q := url.Values{
				"station": {s.Key.Station}, "ioa": {strconv.FormatUint(uint64(s.Key.IOA), 10)},
				"from": {strconv.FormatInt(from.UnixNano(), 10)}, "to": {strconv.FormatInt(to.UnixNano(), 10)},
			}
			keys = append(keys, queryKey{rawQuery: q.Encode(), want: expectedQueryBody(s, from, to)})
		}
	}
	return keys
}

// expectedQueryBody encodes a window of the reference analyzer's
// in-memory series the way the /query handler renders historian rows.
func expectedQueryBody(s *physical.Series, from, to time.Time) []byte {
	type row struct {
		T time.Time `json:"t"`
		V float64   `json:"v"`
	}
	rows := []row{}
	for _, smp := range s.Samples {
		if !smp.T.Before(from) && !smp.T.After(to) {
			rows = append(rows, row{T: smp.T, V: smp.V})
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(rows) // cannot fail: plain structs into a buffer
	return buf.Bytes()
}

func newClient(id int, seed int64, svc *service.Service, fi *fleetInputs, keys []queryKey) *client {
	c := &client{
		id: id, rng: rand.New(rand.NewSource(seed*31 + int64(id))), handler: svc.Handler(),
		bodies: fi.ProbeBodies, fleetSeen: make(map[int][]byte),
	}
	// Skewed key popularity: a hot head that stays cached and a long
	// tail that churns the LRU.
	c.zipf = rand.NewZipf(c.rng, 1.08, 4, uint64(len(keys)-1))
	live, probe := "/v1/live"+strconv.Itoa(id), "/v1/probe"+strconv.Itoa(id)
	add := func(ep int, method, u string, want []byte) {
		req, err := http.NewRequest(method, u, nil)
		if err != nil {
			panic("benchmark: " + err.Error()) // URLs are program literals
		}
		c.byEP[ep] = append(c.byEP[ep], &target{ep: ep, req: req, want: want})
	}
	for p := 0; p < probesPerTenant; p++ {
		add(epPartial, http.MethodPost, probe+"/partial?probe=p"+strconv.Itoa(p), nil)
	}
	add(epProfileJSON, http.MethodGet, live+"/profile", nil)
	add(epProfileText, http.MethodGet, live+"/profile?format=text", nil)
	for _, k := range keys {
		add(epQuery, http.MethodGet, live+"/query?"+k.rawQuery, k.want)
	}
	add(epProbeFleet, http.MethodGet, probe+"/fleet", nil)
	add(epLiveFleet, http.MethodGet, live+"/fleet", nil)
	add(epStatusz, http.MethodGet, live+"/statusz?format=json", nil)
	add(epDrift, http.MethodGet, live+"/drift", nil)
	add(epProbeProfile, http.MethodGet, probe+"/profile", nil)
	for ep, w := range getMix {
		for i := 0; i < w; i++ {
			c.pick = append(c.pick, ep)
		}
	}
	return c
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

// epoch is one POST followed by epochRequests-1 GETs.
func (c *client) epoch(rec *spanRecorder, parent, n int) {
	probe := c.posts % probesPerTenant
	t := c.byEP[epPartial][probe]
	t.req.Body = io.NopCloser(bytes.NewReader(c.bodies[probe]))
	t.req.ContentLength = int64(len(c.bodies[probe]))
	c.do(rec, parent, n, t)
	c.posts++
	for i := 1; i < epochRequests; i++ {
		ep := c.pick[c.rng.Intn(len(c.pick))]
		ts := c.byEP[ep]
		t := ts[0]
		if ep == epQuery {
			t = ts[c.zipf.Uint64()]
		}
		if t.etag != "" && c.rng.Float64() < conditionalRate {
			t.req.Header.Set("If-None-Match", t.etag)
			c.conditional++
		} else {
			t.req.Header.Del("If-None-Match")
		}
		c.do(rec, parent, n, t)
	}
}

// do issues one request in-process, times it and checks the response.
func (c *client) do(rec *spanRecorder, parent, pass int, t *target) {
	c.w.reset()
	t0 := time.Now()
	c.handler.ServeHTTP(&c.w, t.req)
	dt := time.Since(t0)
	c.requests++
	d := ms(dt)
	c.allMS = append(c.allMS, d)
	if d > serveLimitMS {
		c.slow++
	}
	if d > serveTimeoutMS*raceSlowdown {
		c.fail("%s took %.0f ms (timeout %.0f)", t.req.URL, d, serveTimeoutMS)
	}
	w := &c.w
	tag := w.hdr.Get("ETag")
	switch cache := w.hdr.Get("X-Cache"); cache {
	case "miss":
		c.misses++
		c.missMS[t.ep] = append(c.missMS[t.ep], d)
		rec.add("service.miss."+endpointNames[t.ep], t0, dt, parent, pass)
	case "hit":
		c.hits++
		c.hitUS = append(c.hitUS, d*1000)
	}

	switch t.ep {
	case epPartial:
		c.postMS = append(c.postMS, d)
		rec.add("service.partial_post", t0, dt, parent, pass)
		if w.code != http.StatusOK {
			c.fail("POST %s: status %d: %s", t.req.URL, w.code, w.body)
		}
		return
	case epStatusz:
		// Uncached and live: the document moves with every poll.
		if w.code != http.StatusOK || !json.Valid(w.body) {
			c.fail("GET %s: status %d", t.req.URL, w.code)
		}
		return
	}

	sent := t.req.Header.Get("If-None-Match")
	switch {
	case w.code == http.StatusNotModified:
		c.notModified++
		if sent == "" || tag != sent || len(w.body) != 0 {
			c.fail("GET %s: 304 with sent=%q etag=%q body=%d", t.req.URL, sent, tag, len(w.body))
		}
	case w.code == http.StatusOK:
		if tag == "" {
			c.fail("GET %s: 200 without ETag", t.req.URL)
		}
		// A miss re-renders and may answer 200 to a matching validator
		// (the entry was evicted); a hit has no excuse.
		if sent != "" && sent == tag && w.hdr.Get("X-Cache") == "hit" {
			c.fail("GET %s: cache hit answered 200 though If-None-Match matched %q", t.req.URL, tag)
		}
		c.checkBody(t, tag)
		t.etag = tag
	default:
		c.fail("GET %s: status %d: %.120s", t.req.URL, w.code, w.body)
	}
}

// checkBody holds a 200 body against what it must be: the direct
// encode when one is known, else the first body served under the same
// ETag (a strong ETag promises identical bytes). Probe-fleet bodies are
// kept per fleet version and verified against a direct build after the
// stage.
func (c *client) checkBody(t *target, tag string) {
	body := c.w.body
	switch {
	case t.want != nil:
		if !bytes.Equal(body, t.want) {
			c.fail("GET %s: body differs from direct encode (%d vs %d bytes)", t.req.URL, len(body), len(t.want))
		}
	case t.firstTag == tag:
		if !bytes.Equal(body, t.first) {
			c.fail("GET %s: two bodies under ETag %s", t.req.URL, tag)
		}
	default:
		t.first, t.firstTag = append(t.first[:0], body...), tag
		if t.ep == epProbeFleet {
			if _, seen := c.fleetSeen[c.posts]; !seen {
				c.fleetSeen[c.posts] = append([]byte(nil), body...)
			}
		}
	}
}

// verifyFleet rebuilds the probe tenant's fleet document for a spread
// of the versions the client saw and compares bytes.
func (c *client) verifyFleet(fi *fleetInputs) {
	checked := 0
	for ver, body := range c.fleetSeen {
		if ver%16 != 0 && ver != c.posts && ver > probesPerTenant {
			continue
		}
		n := min(ver, probesPerTenant)
		prof := stream.BuildProfile(core.MergePartials(fi.ProbePartials[:n]), ver, 0, clusterSeed)
		prof.Workers = n
		var buf bytes.Buffer
		if err := prof.WriteJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), body) {
			c.fail("probe%d/fleet at version %d differs from a direct build (%d vs %d bytes)", c.id, ver, len(body), buf.Len())
		}
		checked++
	}
	if checked == 0 {
		c.fail("no probe fleet document was checked")
	}
}

// serveStage is the closed-loop fleet read/write mix.
type serveStage struct {
	BlockWall []float64 // seconds per block
	BlockCPU  []float64 // process CPU seconds per block, warm block first
	Ref       []float64 // len(BlockWall)+1
	Clients   []*client
	Mem       memDelta
	Service   *service.Service
	PerBlock  int // requests per block
}

// runServeStage boots a fleet and drives blocks of epochs against it.
// The service is left running (the caller drains it) so the retained
// heap reading sees it alive.
func runServeStage(rc *runCtx, blocks int, histRoot string) (*serveStage, error) {
	root := rc.rec.begin("stage.serve", -1, 0)
	defer rc.rec.end(root)
	sp := rc.rec.begin("service.boot", root, 0)
	svc, err := bootFleet(rc.fleet, histRoot)
	rc.rec.end(sp)
	if err != nil {
		return nil, err
	}
	st := &serveStage{Service: svc, PerBlock: serveClients * epochsPerBlock * epochRequests}
	for c := 0; c < serveClients; c++ {
		st.Clients = append(st.Clients, newClient(c, rc.seed, svc, rc.fleet, rc.queryKeys))
	}
	epoch := 0
	runBlock := func(b int) time.Duration {
		rec := rc.recFor(b)
		bsp := rec.begin("serve.block", root, b)
		c0 := refkernel.ProcessCPU()
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, c := range st.Clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				defer pinToCPU(c.id)()
				for e := 0; e < epochsPerBlock; e++ {
					c.epoch(rec, bsp, epoch+e)
				}
			}(c)
		}
		wg.Wait()
		d := time.Since(t0)
		st.BlockCPU = append(st.BlockCPU, (refkernel.ProcessCPU() - c0).Seconds())
		rec.end(bsp)
		epoch += epochsPerBlock
		return d
	}
	// One warm block: first-touch misses of the hot head and the
	// lazily built fleet documents are set-up, not steady state.
	runBlock(-1)
	for _, c := range st.Clients {
		c.resetTallies()
	}

	m0 := memNow()
	st.Ref = append(st.Ref, rc.refRun(rc.refSer))
	for b := 0; b < blocks; b++ {
		st.BlockWall = append(st.BlockWall, runBlock(b).Seconds())
		st.Ref = append(st.Ref, rc.refRun(rc.refSer))
	}
	st.Mem = memSince(m0)
	for _, c := range st.Clients {
		c.verifyFleet(rc.fleet)
	}
	return st, nil
}

// resetTallies clears a client's counters after the warm block while
// keeping its script position, ETags and known bodies.
func (c *client) resetTallies() {
	c.requests, c.failed, c.slow, c.hits, c.misses, c.notModified, c.conditional = 0, 0, 0, 0, 0, 0, 0
	c.allMS, c.hitUS, c.postMS, c.problems = nil, nil, nil, nil
	c.missMS = [numEndpoints][]float64{}
}

// serveSummary merges the clients' tallies.
type serveSummary struct {
	Requests, Hits, Misses, NotModified, Conditional, Slow int
	AllMS, HitUS, PostMS                                   []float64
	MissMS                                                 [numEndpoints][]float64
}

func (st *serveStage) summary() serveSummary {
	var s serveSummary
	for _, c := range st.Clients {
		s.Requests += c.requests
		s.Hits += c.hits
		s.Misses += c.misses
		s.NotModified += c.notModified
		s.Conditional += c.conditional
		s.Slow += c.slow
		s.AllMS = append(s.AllMS, c.allMS...)
		s.HitUS = append(s.HitUS, c.hitUS...)
		s.PostMS = append(s.PostMS, c.postMS...)
		for ep := range c.missMS {
			s.MissMS[ep] = append(s.MissMS[ep], c.missMS[ep]...)
		}
	}
	return s
}

// allMisses flattens the per-endpoint miss latencies.
func (s *serveSummary) allMisses() []float64 {
	var out []float64
	for _, m := range s.MissMS {
		out = append(out, m...)
	}
	return out
}
