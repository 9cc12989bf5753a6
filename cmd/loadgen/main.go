// Command loadgen is the control-room load generator: thousands of
// concurrent clients replaying a mixed read workload — profile reads,
// historian queries, drift checks, statusz polls — against a running
// unchartedd, reporting latency percentiles, error rates and the
// snapshot-cache hit ratio (observed from the X-Cache header).
//
// The report is written as JSON (service.LoadReport) with -out. Exit
// status enforces thresholds for CI smoke tests: -max-5xx bounds
// server errors, -require-hit-ratio sets a cache hit-ratio floor.
//
// Usage:
//
//	loadgen -base http://127.0.0.1:9180 -tenants east,west
//	loadgen -base http://127.0.0.1:9180 -tenants east,west \
//	  -clients 1000 -duration 10s -mix profile:8,query:2,statusz:1 \
//	  -out service-load.json -max-5xx 0 -require-hit-ratio 0.9
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"uncharted/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	base := flag.String("base", "http://127.0.0.1:9180", "service base URL")
	tenantsFlag := flag.String("tenants", "", "comma-separated tenant names to load (required)")
	clients := flag.Int("clients", 1000, "concurrent clients")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	mixFlag := flag.String("mix", "", "endpoint mix as name:weight,... (default profile:8,query:2,drift:1,statusz:1)")
	out := flag.String("out", "", "write the JSON report here (default stdout only)")
	seed := flag.Int64("seed", 1, "per-client workload seed")
	wait := flag.Duration("wait", 30*time.Second, "max time to wait for /readyz before loading (0 = don't wait)")
	max5xx := flag.Int64("max-5xx", -1, "fail when 5xx responses exceed this (-1 = don't enforce)")
	requireHitRatio := flag.Float64("require-hit-ratio", -1, "fail when the cache hit ratio is below this (-1 = don't enforce)")
	flag.Parse()

	tenants := splitNonEmpty(*tenantsFlag)
	if len(tenants) == 0 {
		log.Printf("loadgen: -tenants required")
		flag.Usage()
		return 2
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Printf("loadgen: %v", err)
		return 2
	}

	ctx := context.Background()
	if *wait > 0 {
		if err := service.WaitReady(ctx, *base, *wait); err != nil {
			log.Printf("%v", err)
			return 1
		}
	}

	rep, err := service.RunLoad(ctx, service.LoadOptions{
		BaseURL:  *base,
		Tenants:  tenants,
		Clients:  *clients,
		Duration: *duration,
		Mix:      mix,
		Seed:     *seed,
	})
	if err != nil {
		log.Printf("loadgen: %v", err)
		return 1
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if *out != "" {
		if err := service.WriteLoadReport(*out, rep); err != nil {
			log.Printf("loadgen: write %s: %v", *out, err)
			return 1
		}
	}

	fmt.Fprintf(os.Stderr, "loadgen: %d clients x %.1fs: %d requests (%.0f/s), p50 %.0fus p99 %.0fus, 5xx %d, hit ratio %.3f\n",
		rep.Clients, rep.DurationSec, rep.Requests, rep.RequestsPerSec,
		rep.P50Micros, rep.P99Micros, rep.Errors5xx, rep.CacheHitRatio)

	code := 0
	if *max5xx >= 0 && rep.Errors5xx > *max5xx {
		log.Printf("loadgen: FAIL: %d 5xx responses (max %d)", rep.Errors5xx, *max5xx)
		code = 1
	}
	if *requireHitRatio >= 0 && rep.CacheHitRatio < *requireHitRatio {
		log.Printf("loadgen: FAIL: cache hit ratio %.3f below required %.3f", rep.CacheHitRatio, *requireHitRatio)
		code = 1
	}
	if rep.Requests == 0 {
		log.Printf("loadgen: FAIL: no requests completed")
		code = 1
	}
	return code
}

// splitNonEmpty splits a comma list, dropping empty elements.
func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseMix parses "profile:8,query:2" into a weight map; empty input
// returns nil so RunLoad applies its default mix.
func parseMix(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	mix := make(map[string]int)
	for _, part := range splitNonEmpty(s) {
		name, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad mix element %q (want name:weight)", part)
		}
		w, err := strconv.Atoi(weight)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		mix[name] = w
	}
	return mix, nil
}
