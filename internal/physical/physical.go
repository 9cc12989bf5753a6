// Package physical implements §6.4 of the paper: extracting physical
// time series (power, voltage, frequency, breaker status, AGC
// setpoints) from I-format APDUs seen at a network tap, scoring them by
// normalized variance to find "interesting" events, and matching the
// event signatures the paper builds — the generator-synchronisation
// state machine of Fig. 21 and the unmet-load incident of Figs. 18/19.
//
// # Storage
//
// A Store writes each sample once. Feed and FeedPoints append to the
// series' last chunk — a fixed-size piece of a slab the store owns —
// and nothing already stored moves when a series grows; under
// SetMaxSamplesPerSeries whole chunks are dropped from the front and
// refilled by whoever grows next. A series becomes one contiguous,
// exact-size Series.Samples slice only when somebody reads it:
// Store.All, Get, ByStation and Ranked, and Series.At, Values and Sample
// copy the chunked tail behind Samples and give the chunks back
// (Len, Evicted, Digest and Store.Digests need no copy, so analysis
// shards, which only ever seal digests, never pay for one). Reading an
// uncapped store with All therefore costs one copy of what it returns.
// A Store was always for one goroutine at a time; since a read may now
// move samples, that includes its readers.
package physical

import (
	"fmt"
	"sort"
	"time"

	"uncharted/internal/iec104"
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
	// size class). All but the last are full; head counts the samples of
	// chunks[0] already evicted, fill the slots of the last chunk in use,
	// tail the live samples in between. Every chunk holds at least one.
	chunks           [][]Sample
	head, fill, tail int

	// running folds the value of every sample of the series' history —
	// evicted ones included — in time order, so Digest is a copy. The
	// store keeps it current: an in-order sample is folded as it arrives
	// and a late one re-folds the history once, at the insert. (The time
	// bounds are not folded — they can be read off an ordered series, and
	// a time.Time store per sample costs more than the arithmetic.)
	running Digest
	// evicted summarises samples dropped under a store-level cap
	// (SetMaxSamplesPerSeries), so moment statistics stay exact over
	// the full history even when only a bounded window is retained.
	evicted  Digest
	nEvicted int
}

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
	// is hashed at most once per frame and each point costs an integer
	// lookup; lastName/last memoize the most recent station, which
	// consecutive frames of a flow repeat.
	stations map[string]map[uint32]*Series
	lastName string
	last     map[uint32]*Series
	// order lists every series first-seen first.
	order []*Series
	// maxSamples, when non-zero, bounds retained samples per series:
	// the oldest are folded into the series' digest and dropped.
	maxSamples int
	// slab is the unused end of the newest sample slab, carved holds how
	// many samples of slab the store has allocated so far, and free lists
	// the chunks series gave back, by size class; see chunk.go.
	slab   []Sample
	carved int
	free   [chunkClasses][][]Sample
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{stations: make(map[string]map[uint32]*Series)} }

// station returns one station's point index, creating it on first use.
func (st *Store) station(name string) map[uint32]*Series {
	if st.last != nil && st.lastName == name {
		return st.last
	}
	idx, ok := st.stations[name]
	if !ok {
		idx = make(map[uint32]*Series)
		st.stations[name] = idx
	}
	st.lastName, st.last = name, idx
	return idx
}

// insert registers a new series under its key.
func (st *Store) insert(s *Series) {
	s.st = st
	st.station(s.Key.Station)[s.Key.IOA] = s
	st.order = append(st.order, s)
}

// add stores one sample, keeping the series time-ordered (Series.At
// binary-searches by time; time-tagged retransmissions in ablation
// mode or reordered captures may deliver an older timestamp late) and
// within the store's per-series cap. A sample is written once, into the
// series' last chunk; nothing already stored moves when a series grows.
func (st *Store) add(s *Series, ts time.Time, v float64) {
	var last []Sample // the chunk being filled
	var prev *Sample  // the series' newest sample
	if k := len(s.chunks); k > 0 {
		last = s.chunks[k-1]
		prev = &last[s.fill-1]
	} else if n := len(s.Samples); n > 0 {
		prev = &s.Samples[n-1]
	}
	if prev != nil && ts.Before(prev.T) {
		st.insertLate(s, ts, v)
	} else {
		if s.fill == len(last) {
			last = st.grow(s)
		}
		last[s.fill] = Sample{T: ts, V: v}
		s.fill++
		s.tail++
		s.running.observeValue(v)
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

// EachValue calls fn for every value-bearing information object of an
// ASDU, resolving each object's timestamp (its CP56 time tag when
// present and valid, otherwise the capture timestamp at). Store.Feed
// and the historian write path share this extraction, so the in-memory
// series and the durable history see identical samples.
func EachValue(a *iec104.ASDU, at time.Time, fn func(ioa uint32, t time.Time, v float64)) {
	for i := range a.Objects {
		obj := &a.Objects[i] // an InfoObject is ~130 bytes: do not copy it per element
		var v float64
		switch obj.Value.Kind {
		case iec104.KindFloat, iec104.KindNormalized, iec104.KindScaled,
			iec104.KindSingle, iec104.KindDouble, iec104.KindStep, iec104.KindCounter,
			iec104.KindCommand:
			v = obj.Value.Float
		default:
			continue
		}
		ts := at
		if obj.Value.HasTime && !obj.Value.Time.Invalid {
			ts = obj.Value.Time.Time
		}
		fn(obj.IOA, ts, v)
	}
}

// Feed extracts every value-bearing information object of an ASDU.
// station names the outstation (or its IP); at is the capture
// timestamp, used when the object carries no time tag. command flags
// control-direction frames (setpoints), which are stored as separate
// series so AGC commands and telemetry never mix.
func (st *Store) Feed(station string, a *iec104.ASDU, at time.Time, command bool) {
	idx := st.station(station)
	EachValue(a, at, func(ioa uint32, ts time.Time, v float64) {
		s, ok := idx[ioa]
		if !ok {
			s = &Series{Key: SeriesKey{Station: station, IOA: ioa}, Type: IEC104Type(a.Type), Command: command}
			st.insert(s)
		}
		st.add(s, ts, v)
	})
}

// Get returns one series.
func (st *Store) Get(key SeriesKey) (*Series, bool) {
	s, ok := st.stations[key.Station][key.IOA]
	if ok {
		s.contiguous()
	}
	return s, ok
}

// All returns every series in first-seen order. Making them contiguous
// costs one copy of every series that grew since it was last read; the
// chunks they were copied from are all free afterwards, and the slabs
// are let go rather than kept as a second copy's worth of free lists.
func (st *Store) All() []*Series {
	for _, s := range st.order {
		s.contiguous()
	}
	st.slab, st.carved, st.free = nil, 0, [chunkClasses][][]Sample{}
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
	type scored struct {
		s     *Series
		score float64
	}
	var ranked []scored
	for _, s := range st.order {
		if s.Len()+s.nEvicted >= minSamples {
			s.contiguous()
			ranked = append(ranked, scored{s, s.NormalizedVariance()})
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	var out []*Series
	for _, r := range ranked {
		out = append(out, r.s)
	}
	return out
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

// FeedPoints stores dialect-extracted measurements — the
// multi-protocol analogue of Feed. station names the measurement
// owner; at is the capture timestamp, used when a point carries no
// embedded time. Each point's series is typed TypeOf(proto, Code), so
// dialects never collide in the type namespace even when register and
// IOA numbers overlap.
func (st *Store) FeedPoints(station string, proto protocol.ID, pts []protocol.Point, at time.Time) {
	idx := st.station(station)
	for i := range pts {
		p := &pts[i]
		s, ok := idx[p.IOA]
		if !ok {
			s = &Series{Key: SeriesKey{Station: station, IOA: p.IOA}, Type: TypeOf(proto, p.Code), Command: p.Command}
			st.insert(s)
		}
		ts := p.T
		if ts.IsZero() {
			ts = at
		}
		st.add(s, ts, p.V)
	}
}
