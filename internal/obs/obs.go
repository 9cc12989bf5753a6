// Package obs is the pipeline's zero-dependency observability layer:
// a concurrency-safe metrics registry (counters, gauges, histograms
// with fixed bucket layouts), a structured JSONL event journal, and
// HTTP exposition in Prometheus text format plus expvar-style JSON.
// Per-stage timing is the flight recorder's (package trace).
//
// Components that sit on hot paths resolve their metric handles once
// (at Instrument time) and then pay only an atomic operation per
// event, so instrumentation stays within a few percent of the
// uninstrumented throughput.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType distinguishes the registry's series kinds.
type MetricType int

// Metric types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Tally is one goroutine's private count in front of a Counter that
// several goroutines share (every shard of an engine resolves the same
// series): Inc and Add touch only the owner's memory, Flush publishes
// what has accumulated. The shared value therefore trails by whatever
// the owner has not flushed, so an owner flushes at fixed points of its
// loop — never on a count threshold, which would strand the tail of an
// idle source. Not safe for concurrent use.
type Tally struct {
	c *Counter
	n int64
}

// Tally returns a zeroed private count that flushes into c.
func (c *Counter) Tally() Tally { return Tally{c: c} }

// Inc adds one to the private count.
func (t *Tally) Inc() { t.n++ }

// Add adds n to the private count.
func (t *Tally) Add(n int64) { t.n += n }

// Flush adds the private count to the shared counter and zeroes it.
func (t *Tally) Flush() {
	if t.n != 0 {
		t.c.Add(t.n)
		t.n = 0
	}
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets. Bounds are
// upper bounds of each bucket; an implicit +Inf bucket is appended.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations: the bucket sum, so it can
// never disagree with the buckets a reader sees.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot reads the histogram's buckets, count and sum — the count as
// the bucket sum, the sum after the buckets — into a snapshot with no
// name or labels; Quantile reads it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
		hs.Count += hs.Counts[i]
	}
	hs.Sum = h.Sum()
	return hs
}

// DurationBuckets is the fixed bucket layout for stage timings, from
// 1µs to ~10s (seconds, exponential).
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2.5, 5, 10}

// series is one (name, labels) time series.
type series struct {
	name   string
	labels []string // alternating key, value
	// rendered is labelString(labels), the tail of the series' map key
	// kept from creation: it is the second sort key of every Snapshot.
	rendered string
	typ      MetricType

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a concurrency-safe collection of metrics.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	help   map[string]string

	// root points at the registry owning the maps above when this
	// value is a label-scoped view created by With; nil on a root.
	root *Registry
	// base is stamped onto every series the view books; a root has
	// none.
	base []string
}

// owner resolves the registry that holds the series store: the root
// for a With view, the receiver itself otherwise.
func (r *Registry) owner() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// With returns a label-scoped view of the registry: every metric
// booked through the view carries the given label pairs in
// addition to its own, and the view's Snapshot reports only series
// carrying them. The underlying store is shared, so a single /metrics
// endpoint on the root exposes every view's series — this is how one
// process hosts many tenants with per-tenant metric labels.
func (r *Registry) With(labels ...string) *Registry {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for registry view: %v", labels))
	}
	base := make([]string, 0, len(r.base)+len(labels))
	base = append(base, r.base...)
	base = append(base, labels...)
	return &Registry{root: r.owner(), base: base}
}

// labelsContain reports whether every (key, value) pair of needles
// appears in haystack.
func labelsContain(haystack, needles []string) bool {
	for i := 0; i+1 < len(needles); i += 2 {
		found := false
		for j := 0; j+1 < len(haystack); j += 2 {
			if haystack[j] == needles[i] && haystack[j+1] == needles[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// Default is the process-wide registry served by the -metrics
// endpoints of the long-running commands.
var Default = NewRegistry()

// seriesKey builds the unique map key for (name, labels): the name
// followed by labelString(labels), the way the series opens its line
// in the Prometheus exposition. One allocation, sized up front.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name) + 1
	for _, l := range labels {
		n += len(l) + 2 // k="v" and its comma or closing brace
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	writeLabels(&b, labels)
	return b.String()
}

// lookup returns the series for (name, labels), creating it — with
// its metric value, so snapshots never see a half-built series — on
// first use. bounds is only consulted for histograms.
func (r *Registry) lookup(name string, typ MetricType, labels []string, bounds []float64) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	if len(r.base) > 0 {
		merged := make([]string, 0, len(r.base)+len(labels))
		merged = append(merged, r.base...)
		merged = append(merged, labels...)
		labels = merged
	}
	o := r.owner()
	key := seriesKey(name, labels)
	o.mu.RLock()
	s := o.series[key]
	o.mu.RUnlock()
	if s == nil {
		o.mu.Lock()
		if s = o.series[key]; s == nil {
			s = &series{name: name, labels: append([]string(nil), labels...), rendered: key[len(name):], typ: typ}
			switch typ {
			case TypeCounter:
				s.c = &Counter{}
			case TypeGauge:
				s.g = &Gauge{}
			case TypeHistogram:
				s.h = newHistogram(bounds)
			}
			o.series[key] = s
		}
		o.mu.Unlock()
	}
	if s.typ != typ {
		panic(fmt.Sprintf("obs: %s registered as %v, requested as %v", name, s.typ, typ))
	}
	return s
}

// Counter returns (registering on first use) the counter for name with
// the given alternating label key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, TypeCounter, labels, nil).c
}

// Gauge returns (registering on first use) the gauge for name.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, TypeGauge, labels, nil).g
}

// Histogram returns (registering on first use) the histogram for name
// with the given bucket upper bounds. Bounds are fixed at first
// registration; later calls reuse the existing layout.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return r.lookup(name, TypeHistogram, labels, bounds).h
}

// SetHelp attaches a HELP string to a metric family name.
func (r *Registry) SetHelp(name, help string) {
	o := r.owner()
	o.mu.Lock()
	o.help[name] = help
	o.mu.Unlock()
}

// CounterSnapshot is one counter's point-in-time state.
type CounterSnapshot struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  int64    `json:"value"`
}

// GaugeSnapshot is one gauge's point-in-time state.
type GaugeSnapshot struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// HistogramSnapshot is one histogram's point-in-time state. Counts are
// per-bucket (not cumulative); the last entry is the +Inf bucket.
type HistogramSnapshot struct {
	Name   string    `json:"name"`
	Labels []string  `json:"labels,omitempty"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket that holds it, the standard
// fixed-bucket estimate. Observations beyond the last finite bound
// are reported as that bound. Returns 0 for an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := 0.0
	lower := 0.0
	for i, bound := range h.Bounds {
		next := cum + float64(h.Counts[i])
		if next >= target && h.Counts[i] > 0 {
			frac := (target - cum) / float64(h.Counts[i])
			return lower + frac*(bound-lower)
		}
		cum = next
		lower = bound
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a consistent-enough point-in-time view of the registry:
// each series is read atomically; a histogram's bucket counts are read
// before its total, so Count may briefly exceed the bucket sum under
// concurrent writes but never the reverse.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every series, sorted by (name, labels). On a With
// view, only the series carrying the view's base labels are included,
// so a tenant's snapshot never leaks its neighbours'.
func (r *Registry) Snapshot() Snapshot {
	o := r.owner()
	o.mu.RLock()
	all := make([]*series, 0, len(o.series))
	for _, s := range o.series {
		if len(r.base) > 0 && !labelsContain(s.labels, r.base) {
			continue
		}
		all = append(all, s)
	}
	o.mu.RUnlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return all[i].rendered < all[j].rendered
	})

	var snap Snapshot
	for _, s := range all {
		switch s.typ {
		case TypeCounter:
			snap.Counters = append(snap.Counters, CounterSnapshot{
				Name: s.name, Labels: s.labels, Value: s.c.Value(),
			})
		case TypeGauge:
			snap.Gauges = append(snap.Gauges, GaugeSnapshot{
				Name: s.name, Labels: s.labels, Value: s.g.Value(),
			})
		case TypeHistogram:
			hs := s.h.Snapshot()
			hs.Name, hs.Labels = s.name, s.labels
			snap.Histograms = append(snap.Histograms, hs)
		}
	}
	return snap
}

// labelString renders labels as {k="v",...} (empty for none).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	writeLabels(&b, labels)
	return b.String()
}

// writeLabels appends the {k="v",...} rendering of a non-empty list.
func writeLabels(b *strings.Builder, labels []string) {
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
