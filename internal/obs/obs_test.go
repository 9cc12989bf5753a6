package obs

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter from many goroutines; run
// with -race this also proves the registry lookup path is safe.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("test_total", "worker", "shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test_total", "worker", "shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramConcurrent checks bucket assignment and totals under
// concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	bounds := []float64{1, 10, 100}
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram("test_hist", bounds)
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w%4) * 30) // 0, 30, 60, 90: buckets le=1 and le=100
			}
		}(w)
	}
	wg.Wait()
	h := reg.Histogram("test_hist", bounds)
	if h.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms in snapshot = %d, want 1", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	// w%4==0 lands in le=1 (value 0); the rest in le=100 (30, 60, 90).
	if hs.Counts[0] != 2*perWorker {
		t.Errorf("le=1 bucket = %d, want %d", hs.Counts[0], 2*perWorker)
	}
	if hs.Counts[2] != 6*perWorker {
		t.Errorf("le=100 bucket = %d, want %d", hs.Counts[2], 6*perWorker)
	}
	if hs.Counts[3] != 0 {
		t.Errorf("+Inf bucket = %d, want 0", hs.Counts[3])
	}
}

// TestGauge checks Set/Add round-trips.
func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestSnapshotConsistency takes snapshots while writers are running:
// a histogram's count is derived from the buckets the snapshot copied,
// so the two can never disagree (Quantile reads both).
func TestSnapshotConsistency(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := reg.Histogram("busy_hist", []float64{1, 2})
			c := reg.Counter("busy_total")
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(1.5)
				c.Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		snap := reg.Snapshot()
		for _, hs := range snap.Histograms {
			var sum uint64
			for _, n := range hs.Counts {
				sum += n
			}
			if sum != hs.Count {
				t.Fatalf("bucket sum %d differs from count %d", sum, hs.Count)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestWritePrometheus pins the exposition format on a small fixed
// registry (the golden output a scraper must be able to parse).
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("app_requests_total", "Requests served.")
	reg.Counter("app_requests_total", "code", "200").Add(3)
	reg.Counter("app_requests_total", "code", "500").Add(1)
	reg.Gauge("app_temperature").Set(36.6)
	h := reg.Histogram("app_latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="200"} 3
app_requests_total{code="500"} 1
# TYPE app_temperature gauge
app_temperature 36.6
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 5.55
app_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelEscaping checks Prometheus label-value escaping.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped series %q not found in:\n%s", want, b.String())
	}
}

// TestTypeMismatchPanics pins the registration-conflict contract.
func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mixed_metric")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter re-registered as gauge")
		}
	}()
	reg.Gauge("mixed_metric")
}

// snapshotKeys lists a snapshot's series of one kind as (name, rendered
// labels) pairs, in snapshot order.
func snapshotKeys(snap Snapshot) (counters, gauges, hists [][2]string) {
	for _, c := range snap.Counters {
		counters = append(counters, [2]string{c.Name, labelString(c.Labels)})
	}
	for _, g := range snap.Gauges {
		gauges = append(gauges, [2]string{g.Name, labelString(g.Labels)})
	}
	for _, h := range snap.Histograms {
		hists = append(hists, [2]string{h.Name, labelString(h.Labels)})
	}
	return
}

// TestSnapshotOrderUnchanged: a series keeps its rendered label string
// from creation and Snapshot sorts on it; the order must be exactly
// what sorting by (name, labelString(labels)) gives — names that
// prefix each other, label values that need escaping, labels that only
// differ late, and series booked through With views included.
func TestSnapshotOrderUnchanged(t *testing.T) {
	r := NewRegistry()
	view := r.With("tenant", "east").With("shard", "1")
	for _, name := range []string{"req", "req_total", "re", "req_total_bytes"} {
		r.Counter(name)
		r.Counter(name, "code", "200")
		r.Counter(name, "code", "200", "endpoint", "query")
		r.Counter(name, "code", "20")
		r.Counter(name, "path", `a"b`)
		r.Counter(name, "path", "a\nb")
		r.Counter(name, "path", `a\b`)
		r.Counter(name, "path", "a b")
		r.Counter(name, "path", "a")
		r.Counter(name, "tenant", "east")
		view.Counter(name)
		view.Counter(name, "code", "200")
		r.With("tenant", "west").Counter(name, "code", "404")
		r.Gauge(name+"_g", "z", "1")
		r.Gauge(name+"_g", "a", "2")
		view.Gauge(name + "_g")
		r.Histogram(name+"_h", DurationBuckets, "stage", "b")
		view.Histogram(name+"_h", DurationBuckets, "stage", "a")
	}
	for _, reg := range []*Registry{r, view} {
		counters, gauges, hists := snapshotKeys(reg.Snapshot())
		for kind, got := range map[string][][2]string{"counters": counters, "gauges": gauges, "histograms": hists} {
			if len(got) == 0 {
				t.Fatalf("%s: empty", kind)
			}
			want := append([][2]string(nil), got...)
			sort.SliceStable(want, func(i, j int) bool {
				if want[i][0] != want[j][0] {
					return want[i][0] < want[j][0]
				}
				return want[i][1] < want[j][1]
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s out of (name, labelString) order:\n got %v\nwant %v", kind, got, want)
			}
			for i := 1; i < len(got); i++ {
				if got[i] == got[i-1] {
					t.Errorf("%s: duplicate series %v", kind, got[i])
				}
			}
		}
	}
	if counters, _, _ := snapshotKeys(view.Snapshot()); len(counters) != 8 {
		t.Errorf("view snapshot has %d counters, want 8", len(counters))
	}
}

// BenchmarkRegistrySnapshot is the cost behind every /statusz, /metrics
// and /debug/vars: a registry the size of a two-tenant service's.
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for _, tenant := range []string{"live0", "probe0", "live1", "probe1"} {
		v := r.With("tenant", tenant)
		for i := 0; i < 40; i++ {
			name := "uncharted_metric_" + strconv.Itoa(i%10) + "_total"
			v.Counter(name, "endpoint", "e"+strconv.Itoa(i), "code", "200").Inc()
			v.Gauge("uncharted_gauge_"+strconv.Itoa(i%10), "shard", strconv.Itoa(i)).Set(1)
		}
		for i := 0; i < 12; i++ {
			v.Histogram("uncharted_stage_seconds", DurationBuckets, "stage", strconv.Itoa(i)).Observe(0.001)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Snapshot().Counters) != 160 {
			b.Fatal("snapshot lost series")
		}
	}
}
