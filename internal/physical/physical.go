// Package physical implements §6.4 of the paper: extracting physical
// time series (power, voltage, frequency, breaker status, AGC
// setpoints) from I-format APDUs seen at a network tap, scoring them by
// normalized variance to find "interesting" events, and matching the
// event signatures the paper builds — the generator-synchronisation
// state machine of Fig. 21 and the unmet-load incident of Figs. 18/19.
//
// # Storage
//
// A Store writes each sample once, in packed form: sixteen pointer-free
// bytes (UTC wall nanoseconds and the value). FeedPoints finds
// the series through the station's page table — an array index per
// point, no hash — and append to the chunk the series is filling, a
// fixed-size piece of a slab the store owns; nothing already stored
// moves when a series grows, and under SetMaxSamplesPerSeries whole
// chunks are dropped from the front and refilled by whoever grows next.
// A late sample is shifted into place within the chunks, still packed.
// A series becomes one contiguous, exact-size Series.Samples slice of
// time.Time-bearing Samples only when somebody reads it: Store.All,
// Get, ByStation and Ranked, and Series.At, Values and Sample convert
// the chunked tail behind Samples (Store.compact, run for nothing else)
// and give the chunks back (Len, Evicted, Digest and Store.Digests need
// no copy, so analysis shards, which only ever seal digests, never pay
// for one). Reading an uncapped store with All therefore costs one
// conversion of what it returns. Every capture reader and codec in the
// module produces UTC wall-clock times, which the packed form holds
// exactly; a series handed any other time (zero, zoned, monotonic,
// outside 1678-2262) keeps plain Samples from then on rather than have
// it rounded. A Store was always for one goroutine at a time; since a
// read may move samples, that includes its readers.
package physical

import (
	"fmt"
	"math"
	"sort"
	"time"

	"uncharted/internal/protocol"
	"uncharted/internal/stats"
)

// SeriesKey identifies one monitored point.
type SeriesKey struct {
	Station string // outstation ID or address
	IOA     uint32
}

func (k SeriesKey) String() string { return fmt.Sprintf("%s/%d", k.Station, k.IOA) }

// Sample is one extracted value.
type Sample struct {
	T time.Time
	V float64
}

// View is a read-only, time-ordered sample sequence. The in-memory
// *Series satisfies it, and so do historian-backed query results, so
// the event-signature detectors run identically over live state and
// replayed on-disk history.
type View interface {
	// Len returns the number of samples.
	Len() int
	// Sample returns the i-th sample in time order.
	Sample(i int) Sample
}

// Views adapts a slice of series to a slice of Views (Go does not
// convert slice element types implicitly).
func Views(series ...*Series) []View {
	out := make([]View, len(series))
	for i, s := range series {
		out[i] = s
	}
	return out
}

// viewEmpty reports whether v holds no samples; it tolerates both nil
// interfaces and typed-nil *Series values.
func viewEmpty(v View) bool { return v == nil || v.Len() == 0 }

// viewAt returns the value in force at t (last sample not after t),
// the View counterpart of Series.At.
func viewAt(v View, t time.Time) (float64, bool) {
	if viewEmpty(v) || t.Before(v.Sample(0).T) {
		return 0, false
	}
	idx := sort.Search(v.Len(), func(i int) bool { return v.Sample(i).T.After(t) })
	return v.Sample(idx - 1).V, true
}

// Series is the extracted history of one point.
type Series struct {
	// The write cursor and the running moments come first and together:
	// storing an in-order sample reads and writes these words and one
	// chunk slot, nothing else of the series.
	//
	// cur is the chunk being filled — its length the slots in use, its
	// capacity the chunk's — and nil when the series has no tail. lastT
	// is the packed time of the series' newest sample, which decides
	// in-order or late without reading chunk memory: the smallest int64
	// while the series is empty (nothing is older), the largest once the
	// series is plain (everything takes the slow path). tail counts the
	// live samples in chunks. running folds the value of every sample of
	// the series' history — evicted ones included — in time order, so
	// Digest is a copy. The store keeps it current: an in-order sample is
	// folded as it arrives and a late one re-folds the history once, at
	// the insert. (The time bounds are not folded — they can be read off
	// an ordered series.)
	cur     []slot
	lastT   int64
	tail    int
	running moments

	Key  SeriesKey
	Type PointType
	// Direction is true for control-direction objects (commands).
	Command bool
	// Samples is the retained window in time order. On a series a Store
	// accessor hands out (All, Get, ByStation, Ranked) it holds the whole
	// window at the moment of the call; feeding the store afterwards
	// appends to the series' chunked tail, not here, so fetch the series
	// again (or go through Len/Sample/At/Values, which make it contiguous
	// first) to see what arrived since. A hand-built Series is just this
	// slice.
	Samples []Sample

	// st is the store that feeds this series and owns its chunks; nil for
	// a hand-built Series.
	st *Store
	// chunks is the tail: what the store appended since Samples was last
	// made contiguous, in store-owned fixed-size chunks (len == cap, a
	// size class) of packed slots. All but the last — cur — are full;
	// head counts the slots of chunks[0] already evicted. Every chunk
	// holds at least one live sample.
	chunks [][]slot
	head   int

	// evicted summarises samples dropped under a store-level cap
	// (SetMaxSamplesPerSeries), so moment statistics stay exact over
	// the full history even when only a bounded window is retained.
	evicted  Digest
	nEvicted int
}

// plain reports whether the series was handed a time the packed form
// cannot hold exactly (see pack). It keeps whole Samples from then on
// and never has a tail.
func (s *Series) plain() bool { return s.lastT == math.MaxInt64 }

// Len implements View. It is nil-receiver-safe so a typed-nil *Series
// passed through the View interface behaves like an empty series.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Samples) + s.tail
}

// Sample implements View.
func (s *Series) Sample(i int) Sample {
	s.contiguous()
	return s.Samples[i]
}

// Evicted returns how many samples were dropped under the store's
// per-series cap (zero when uncapped).
func (s *Series) Evicted() int { return s.nEvicted }

// Values returns the raw retained values.
func (s *Series) Values() []float64 {
	s.contiguous()
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		out[i] = smp.V
	}
	return out
}

// NormalizedVariance scores the series the way §6.4 ranks candidates.
// Under a sample cap it is computed from the full-history digest, so
// eviction never changes a series' ranking.
func (s *Series) NormalizedVariance() float64 {
	if s.nEvicted > 0 {
		return s.Digest().NormalizedVariance()
	}
	return stats.NormalizedVariance(s.Values())
}

// At returns the value in force at t (last sample not after t).
func (s *Series) At(t time.Time) (float64, bool) {
	s.contiguous()
	if len(s.Samples) == 0 || t.Before(s.Samples[0].T) {
		return 0, false
	}
	idx := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T.After(t) })
	return s.Samples[idx-1].V, true
}

// Store accumulates series from parsed traffic. It is used from one
// goroutine at a time, reads included: an accessor that hands out
// series makes them contiguous first, which moves samples and recycles
// chunks.
type Store struct {
	// stations is the one series index: station name, then point
	// address. A frame's points all belong to one station, so the string
	// is hashed at most once per frame and each point costs a page-table
	// index (points.slot); lastName/last memoize the most recent station,
	// which consecutive frames of a flow repeat.
	stations map[string]*points
	lastName string
	last     *points
	// order lists every series first-seen first.
	order []*Series
	// maxSamples, when non-zero, bounds retained samples per series:
	// the oldest are folded into the series' digest and dropped.
	maxSamples int
	// slab is the unused end of the newest sample slab, carved holds how
	// many samples of slab the store has allocated so far, and free lists
	// the chunks series gave back, by size class; see chunk.go.
	slab   []slot
	carved int
	free   [chunkClasses][][]slot
}

// A station's points are indexed by pages of pageSize consecutive
// addresses: the points of a C37.118 frame (IDCode<<8 | channel) and
// the consecutive addresses of an SQ=1 ASDU or a register block are an
// array index each, behind one page lookup the index memoises. A
// capture with one point per page pays a page (512 bytes) per point —
// no more than the point's Series and first chunk already cost.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

type page [pageSize]*Series

// points is one station's point index.
type points struct {
	pages map[uint32]*page // by address >> pageBits
	// last memoises the page used last, number lastNo.
	lastNo uint32
	last   *page
}

// slot returns where the station keeps its series for address ioa,
// creating the page on first use; the caller fills a nil slot in.
func (px *points) slot(ioa uint32) **Series {
	if no := ioa >> pageBits; px.last == nil || px.lastNo != no {
		p, ok := px.pages[no]
		if !ok {
			p = new(page)
			px.pages[no] = p
		}
		px.lastNo, px.last = no, p
	}
	return &px.last[ioa%pageSize]
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{stations: make(map[string]*points)} }

// station returns one station's point index, creating it on first use.
func (st *Store) station(name string) *points {
	if st.last != nil && st.lastName == name {
		return st.last
	}
	idx, ok := st.stations[name]
	if !ok {
		idx = &points{pages: make(map[uint32]*page)}
		st.stations[name] = idx
	}
	st.lastName, st.last = name, idx
	return idx
}

// newSeries registers an empty series in its station's index slot.
func (st *Store) newSeries(at **Series, key SeriesKey, typ PointType, command bool) *Series {
	s := &Series{Key: key, Type: typ, Command: command, st: st, lastT: math.MinInt64}
	*at = s
	st.order = append(st.order, s)
	return s
}

// add stores one sample, keeping the series time-ordered (Series.At
// binary-searches by time; time-tagged retransmissions in ablation
// mode or reordered captures may deliver an older timestamp late) and
// within the store's per-series cap. A sample is written once, into the
// chunk the series is filling, or a late one where it belongs in the
// chunks; nothing already stored moves when a series grows.
func (st *Store) add(s *Series, ts time.Time, v float64) {
	t, ok := pack(ts)
	switch {
	case ok && t >= s.lastT:
		n := len(s.cur)
		if n == cap(s.cur) {
			st.grow(s)
			n = 0
		}
		s.cur = s.cur[:n+1]
		s.cur[n] = slot{t: t, v: v}
		s.lastT = t
		s.tail++
		s.running.observe(v)
	case ok && !s.plain():
		st.insertLate(s, ts, v)
	default:
		if !s.plain() {
			// Not rounded to fit: this series keeps time.Time values for good.
			s.contiguous()
			s.lastT = math.MaxInt64
		}
		st.addPlain(s, ts, v)
	}
	if st.maxSamples > 0 && s.Len() > st.maxSamples {
		st.evict(s, s.Len()-st.maxSamples/2)
	}
}

// SetMaxSamplesPerSeries bounds the retained in-memory samples per
// series (minimum 2). Evicted samples keep contributing to each
// series' digest — count, min/max, mean and variance stay exact over
// the full history — but raw values older than the window are gone, so
// time-domain scans (event signatures, At) only see the window. Long
// -follow runs pair this with the historian, which retains the full
// history on disk. n <= 0 restores unbounded growth.
func (st *Store) SetMaxSamplesPerSeries(n int) {
	if n > 0 && n < 2 {
		n = 2
	}
	st.maxSamples = n
}

// Get returns one series.
func (st *Store) Get(key SeriesKey) (*Series, bool) {
	var s *Series
	if px := st.stations[key.Station]; px != nil {
		if p := px.pages[key.IOA>>pageBits]; p != nil {
			s = p[key.IOA%pageSize]
		}
	}
	if s == nil {
		return nil, false
	}
	s.contiguous()
	return s, true
}

// All returns every series in first-seen order. Making them contiguous
// costs one copy of every series that grew since it was last read; the
// chunks they were copied from are all free afterwards, and the slabs
// are let go rather than kept as a second copy's worth of free lists.
func (st *Store) All() []*Series {
	for _, s := range st.order {
		s.contiguous()
	}
	st.slab, st.carved, st.free = nil, 0, [chunkClasses][][]slot{}
	return append(make([]*Series, 0, len(st.order)), st.order...)
}

// ByStation returns the series of one station.
func (st *Store) ByStation(station string) []*Series {
	var out []*Series
	for _, s := range st.order {
		if s.Key.Station == station {
			s.contiguous()
			out = append(out, s)
		}
	}
	return out
}

// Ranked returns all series with at least minSamples (counting evicted
// ones), ordered by decreasing normalized variance — the paper's
// shortlist of "interesting" physical behaviour.
func (st *Store) Ranked(minSamples int) []*Series {
	var rank []scored
	for i, s := range st.order {
		if s.Len()+s.nEvicted >= minSamples {
			s.contiguous()
			rank = append(rank, scored{s.NormalizedVariance(), i})
		}
	}
	return ranked(st.order, rank)
}

// TypeStations returns, per point type, the number of distinct
// stations transmitting it (Table 8's "Transmitting Station Count").
func (st *Store) TypeStations() map[PointType]int {
	byType := map[PointType]map[string]bool{}
	for _, s := range st.order {
		m, ok := byType[s.Type]
		if !ok {
			m = map[string]bool{}
			byType[s.Type] = m
		}
		m[s.Key.Station] = true
	}
	out := make(map[PointType]int, len(byType))
	for t, m := range byType {
		out[t] = len(m)
	}
	return out
}

// FeedPoints stores one frame's measurements, whatever dialect
// extracted them (iec104.AppendPoints for IEC 104). station names the
// measurement owner, the outstation; at is the capture timestamp, used
// when a point carries no embedded time. Each point's series is typed
// TypeOf(proto, Code), so dialects never collide in the type namespace
// even when register and IOA numbers overlap, and a control-direction
// point starts a command series. A NaN or infinite value is skipped:
// it would hold a series' mean at NaN for the rest of the run.
func (st *Store) FeedPoints(station string, proto protocol.ID, pts []protocol.Point, at time.Time) {
	idx := st.station(station)
	for i := range pts {
		p := &pts[i]
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			continue
		}
		sp := idx.slot(p.IOA)
		s := *sp
		if s == nil {
			s = st.newSeries(sp, SeriesKey{Station: station, IOA: p.IOA}, TypeOf(proto, p.Code), p.Command)
		}
		ts := p.T
		if ts.IsZero() {
			ts = at
		}
		st.add(s, ts, p.V)
	}
}
