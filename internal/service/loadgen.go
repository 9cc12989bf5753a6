package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// LoadMix weights the endpoints a load client hits. The default mix
// models a control-room wall: mostly profile reads (the dashboards),
// some historian queries and drift checks, an occasional statusz.
var DefaultMix = map[string]int{
	"profile": 8,
	"query":   2,
	"drift":   1,
	"statusz": 1,
}

// LoadOptions parameterises RunLoad.
type LoadOptions struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:9180".
	BaseURL string
	// Tenants are the tenant names to spread requests over.
	Tenants []string
	// Clients is the number of concurrent clients (default 100).
	Clients int
	// Duration is how long to run (default 5s).
	Duration time.Duration
	// Mix weights the endpoints (default DefaultMix). Endpoints a
	// tenant doesn't serve still count their 404s, so keep the mix to
	// what the target config enables.
	Mix map[string]int
	// Timeout bounds one request (default 10s).
	Timeout time.Duration
	// Seed makes the per-client endpoint/tenant choices reproducible.
	Seed int64
}

// EndpointStats is the per-endpoint slice of a load report.
type EndpointStats struct {
	Endpoint    string  `json:"endpoint"`
	Requests    int64   `json:"requests"`
	Errors5xx   int64   `json:"errors_5xx"`
	Errors4xx   int64   `json:"errors_4xx"`
	NetErrors   int64   `json:"net_errors"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	MaxMicros   float64 `json:"max_us"`
}

// LoadReport is the machine-readable result of one load run, the
// JSON cmd/loadgen writes with -out.
type LoadReport struct {
	Clients        int             `json:"clients"`
	Tenants        int             `json:"tenants"`
	DurationSec    float64         `json:"duration_sec"`
	Requests       int64           `json:"requests"`
	RequestsPerSec float64         `json:"requests_per_sec"`
	Errors5xx      int64           `json:"errors_5xx"`
	Errors4xx      int64           `json:"errors_4xx"`
	NetErrors      int64           `json:"net_errors"`
	CacheHits      int64           `json:"cache_hits"`
	CacheMisses    int64           `json:"cache_misses"`
	CacheHitRatio  float64         `json:"cache_hit_ratio"`
	P50Micros      float64         `json:"p50_us"`
	P99Micros      float64         `json:"p99_us"`
	Endpoints      []EndpointStats `json:"endpoints"`
}

// clientStats is one client's private tally — merged after the run so
// the hot loop never contends on a shared lock.
type clientStats struct {
	byEndpoint map[string]*epTally
}

type epTally struct {
	requests, e5xx, e4xx, netErr, hits, misses int64
	latencies                                  []int64 // microseconds
}

// RunLoad drives opts.Clients concurrent clients against the service
// for opts.Duration, spreading a weighted endpoint mix over the tenant
// list, and returns latency percentiles, error counts and the cache
// hit ratio observed from the X-Cache response header.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if len(opts.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: at least one tenant required")
	}
	if opts.Clients <= 0 {
		opts.Clients = 100
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	mix := opts.Mix
	if len(mix) == 0 {
		mix = DefaultMix
	}
	// Flatten the mix into a weighted pick table.
	endpoints := make([]string, 0, len(mix))
	for ep := range mix {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	var picks []string
	for _, ep := range endpoints {
		for i := 0; i < mix[ep]; i++ {
			picks = append(picks, ep)
		}
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("loadgen: mix has no positive weights")
	}

	transport := &http.Transport{
		MaxIdleConns:        opts.Clients * 2,
		MaxIdleConnsPerHost: opts.Clients * 2,
		IdleConnTimeout:     30 * time.Second,
	}
	client := &http.Client{Transport: transport, Timeout: opts.Timeout}
	defer transport.CloseIdleConnections()

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	stats := make([]*clientStats, opts.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.Clients; i++ {
		cs := &clientStats{byEndpoint: make(map[string]*epTally, len(mix))}
		stats[i] = cs
		wg.Add(1)
		go func(id int, cs *clientStats) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(id)*7919))
			for runCtx.Err() == nil {
				ep := picks[rng.Intn(len(picks))]
				tenant := opts.Tenants[rng.Intn(len(opts.Tenants))]
				tally := cs.byEndpoint[ep]
				if tally == nil {
					tally = &epTally{}
					cs.byEndpoint[ep] = tally
				}
				url := opts.BaseURL + "/v1/" + tenant + "/" + ep
				req, err := http.NewRequestWithContext(runCtx, http.MethodGet, url, nil)
				if err != nil {
					tally.netErr++
					continue
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				elapsed := time.Since(t0).Microseconds()
				if err != nil {
					// The deadline firing mid-request is the normal way
					// a run ends, not an error.
					if runCtx.Err() != nil {
						return
					}
					tally.netErr++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tally.requests++
				tally.latencies = append(tally.latencies, elapsed)
				switch {
				case resp.StatusCode >= 500:
					tally.e5xx++
				case resp.StatusCode >= 400:
					tally.e4xx++
				}
				switch resp.Header.Get("X-Cache") {
				case "hit":
					tally.hits++
				case "miss":
					tally.misses++
				}
			}
		}(i, cs)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge per-client tallies.
	merged := make(map[string]*epTally)
	for _, cs := range stats {
		for ep, t := range cs.byEndpoint {
			m := merged[ep]
			if m == nil {
				m = &epTally{}
				merged[ep] = m
			}
			m.requests += t.requests
			m.e5xx += t.e5xx
			m.e4xx += t.e4xx
			m.netErr += t.netErr
			m.hits += t.hits
			m.misses += t.misses
			m.latencies = append(m.latencies, t.latencies...)
		}
	}

	rep := &LoadReport{
		Clients:     opts.Clients,
		Tenants:     len(opts.Tenants),
		DurationSec: elapsed.Seconds(),
	}
	var all []int64
	epNames := make([]string, 0, len(merged))
	for ep := range merged {
		epNames = append(epNames, ep)
	}
	sort.Strings(epNames)
	for _, ep := range epNames {
		t := merged[ep]
		sort.Slice(t.latencies, func(i, j int) bool { return t.latencies[i] < t.latencies[j] })
		es := EndpointStats{
			Endpoint:    ep,
			Requests:    t.requests,
			Errors5xx:   t.e5xx,
			Errors4xx:   t.e4xx,
			NetErrors:   t.netErr,
			CacheHits:   t.hits,
			CacheMisses: t.misses,
			P50Micros:   percentile(t.latencies, 0.50),
			P99Micros:   percentile(t.latencies, 0.99),
		}
		if n := len(t.latencies); n > 0 {
			es.MaxMicros = float64(t.latencies[n-1])
		}
		rep.Endpoints = append(rep.Endpoints, es)
		rep.Requests += t.requests
		rep.Errors5xx += t.e5xx
		rep.Errors4xx += t.e4xx
		rep.NetErrors += t.netErr
		rep.CacheHits += t.hits
		rep.CacheMisses += t.misses
		all = append(all, t.latencies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50Micros = percentile(all, 0.50)
	rep.P99Micros = percentile(all, 0.99)
	if elapsed > 0 {
		rep.RequestsPerSec = float64(rep.Requests) / elapsed.Seconds()
	}
	if denom := rep.CacheHits + rep.CacheMisses; denom > 0 {
		rep.CacheHitRatio = float64(rep.CacheHits) / float64(denom)
	}
	return rep, nil
}

// percentile reads the p-th quantile from an ascending-sorted slice of
// microsecond latencies.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx])
}

// WaitReady polls base+"/readyz" until it answers 200, the context
// ends, or timeout elapses. It is how cmd/loadgen and the CI smoke
// wait for the daemon's tenants to publish their first snapshots.
func WaitReady(ctx context.Context, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	var last string
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, string(body))
		} else {
			last = err.Error()
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("loadgen: %s/readyz not ready after %s: %s", base, timeout, last)
}

// WriteLoadReport writes a load report as indented JSON.
func WriteLoadReport(path string, rep *LoadReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
