package physical

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
	"uncharted/internal/stats"
)

// refStore is the sample store as it was before chunked storage: one
// growing slice per series, a late sample shifted into place, eviction
// by sliding the window down with copy, the digest re-folded from the
// evicted prefix and the window. It is the reference the chunked store
// must agree with sample for sample and bit for bit.
type refStore struct {
	byKey      map[SeriesKey]*Series // only Key, Type, Samples, evicted and nEvicted are used
	order      []*Series
	maxSamples int
}

func (st *refStore) add(key SeriesKey, typ PointType, ts time.Time, v float64) {
	s, ok := st.byKey[key]
	if !ok {
		s = &Series{Key: key, Type: typ}
		st.byKey[key] = s
		st.order = append(st.order, s)
	}
	if n := len(s.Samples); n > 0 && ts.Before(s.Samples[n-1].T) {
		idx := sort.Search(n, func(i int) bool { return s.Samples[i].T.After(ts) })
		s.Samples = append(s.Samples, Sample{})
		copy(s.Samples[idx+1:], s.Samples[idx:])
		s.Samples[idx] = Sample{T: ts, V: v}
	} else {
		s.Samples = append(s.Samples, Sample{T: ts, V: v})
	}
	if st.maxSamples > 0 && len(s.Samples) > st.maxSamples {
		n := len(s.Samples) - st.maxSamples/2
		for _, smp := range s.Samples[:n] {
			s.evicted.observe(smp.T, smp.V)
		}
		s.nEvicted += n
		s.Samples = s.Samples[:copy(s.Samples, s.Samples[n:])]
	}
}

func refAt(s *Series, t time.Time) (float64, bool) {
	if len(s.Samples) == 0 || t.Before(s.Samples[0].T) {
		return 0, false
	}
	idx := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T.After(t) })
	return s.Samples[idx-1].V, true
}

func refNormalizedVariance(s *Series) float64 {
	if s.nEvicted > 0 {
		return refoldDigest(s).NormalizedVariance()
	}
	vals := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		vals[i] = smp.V
	}
	return stats.NormalizedVariance(vals)
}

func (st *refStore) ranked(minSamples int) []SeriesKey {
	var out []*Series
	for _, s := range st.order {
		if len(s.Samples)+s.nEvicted >= minSamples {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return refNormalizedVariance(out[i]) > refNormalizedVariance(out[j]) })
	keys := make([]SeriesKey, len(out))
	for i, s := range out {
		keys[i] = s.Key
	}
	return keys
}

// storePair feeds a Store and the reference the same samples.
type storePair struct {
	t      *testing.T
	st     *Store
	ref    *refStore
	points bool // through FeedPoints rather than Feed
}

func newStorePair(t *testing.T, limit int, points bool) *storePair {
	p := &storePair{t: t, st: NewStore(), ref: &refStore{byKey: map[SeriesKey]*Series{}, maxSamples: limit}, points: points}
	p.st.SetMaxSamplesPerSeries(limit)
	return p
}

func (p *storePair) feed(station string, ioa uint32, ts time.Time, v float64) {
	typ := IEC104Type(iec104.MMeNc)
	if p.points {
		typ = TypeOf(protocol.Modbus, 0)
		// A zero point time means "use the capture time": pass ts there too.
		p.st.FeedPoints(station, protocol.Modbus, []protocol.Point{{IOA: ioa, V: v, T: ts}}, ts)
	} else {
		a := iec104.NewMeasurement(iec104.MMeNc, 1, ioa, iec104.Value{Kind: iec104.KindFloat, Float: v}, iec104.CauseSpontaneous)
		p.st.Feed(station, a, ts, false)
	}
	p.ref.add(SeriesKey{Station: station, IOA: ioa}, typ, ts, v)
}

// checkSeries compares one handed-out series with its reference.
func (p *storePair) checkSeries(s *Series, rng *rand.Rand) {
	p.t.Helper()
	r := p.ref.byKey[s.Key]
	if r == nil {
		p.t.Fatalf("%v: not in the reference", s.Key)
	}
	if s.Type != r.Type || s.Command != r.Command {
		p.t.Fatalf("%v: type %v command %v, reference %v %v", s.Key, s.Type, s.Command, r.Type, r.Command)
	}
	if !reflect.DeepEqual(s.Samples, r.Samples) {
		p.t.Fatalf("%v: %d samples differ from the reference's %d", s.Key, len(s.Samples), len(r.Samples))
	}
	if s.Len() != len(r.Samples) || s.Evicted() != r.nEvicted {
		p.t.Fatalf("%v: Len %d Evicted %d, reference %d %d", s.Key, s.Len(), s.Evicted(), len(r.Samples), r.nEvicted)
	}
	if got, want := s.Digest(), refoldDigest(r); !sameBits(got, want) {
		p.t.Fatalf("%v: digest %+v, reference %+v", s.Key, got, want)
	}
	first, last := r.Samples[0].T, r.Samples[len(r.Samples)-1].T
	if first.IsZero() { // a zero-time first sample is in force at any instant before the second
		first = t0.Add(-time.Hour)
	}
	if last.Before(first) {
		last = first
	}
	for i := 0; i < 8; i++ {
		at := first.Add(time.Duration(rng.Int63n(int64(last.Sub(first))+2e9)) - time.Second)
		gv, gok := s.At(at)
		wv, wok := refAt(r, at)
		if gv != wv || gok != wok {
			p.t.Fatalf("%v: At(%v) = %v,%v, reference %v,%v", s.Key, at, gv, gok, wv, wok)
		}
	}
}

// checkAll compares everything the store hands out with the reference.
func (p *storePair) checkAll(rng *rand.Rand) {
	p.t.Helper()
	all := p.st.All()
	// A full read leaves nothing in chunks, so nothing may hold a slab.
	if p.st.carved != 0 || slabFootprint(p.st) != 0 {
		p.t.Fatalf("All() kept %d slab slots", p.st.carved)
	}
	for _, s := range all {
		for _, chunk := range s.chunks[:cap(s.chunks)] {
			if chunk != nil {
				p.t.Fatalf("%v: a stale chunk header pins its slab after All()", s.Key)
			}
		}
	}
	if len(all) != len(p.ref.order) {
		p.t.Fatalf("%d series, reference %d", len(all), len(p.ref.order))
	}
	for i, s := range all {
		if s.Key != p.ref.order[i].Key {
			p.t.Fatalf("series %d is %v, reference %v", i, s.Key, p.ref.order[i].Key)
		}
		p.checkSeries(s, rng)
	}
	// Digests, as a seal takes them, need no read first.
	for i, d := range p.st.Digests() {
		if want := refoldDigest(p.ref.order[i]); !sameBits(d, want) {
			p.t.Fatalf("%v: sealed digest %+v, reference %+v", d.Key, d, want)
		}
	}
	for _, min := range []int{0, 150} {
		got, want := p.st.Ranked(min), p.ref.ranked(min)
		if len(got) != len(want) {
			p.t.Fatalf("Ranked(%d): %d series, reference %d", min, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i] {
				p.t.Fatalf("Ranked(%d): rank %d is %v, reference %v", min, i, got[i].Key, want[i])
			}
		}
	}
	p.checkConservation()
}

// checkConservation: every sample slot the store allocated is in a
// series' chunk, on a free list or in the unused slab — none is lost.
func (p *storePair) checkConservation() {
	p.t.Helper()
	if got := slabFootprint(p.st); got != p.st.carved {
		p.t.Fatalf("chunks, free lists and slab hold %d slots, %d were allocated", got, p.st.carved)
	}
}

func slabFootprint(st *Store) int {
	n := len(st.slab)
	for c, list := range st.free {
		for _, chunk := range list {
			if len(chunk) != minChunk<<c || cap(chunk) != len(chunk) {
				return -1
			}
			n += len(chunk)
		}
	}
	for _, s := range st.order {
		for _, chunk := range s.chunks {
			n += len(chunk)
		}
	}
	return n
}

// TestChunkedStoreMatchesReference: over seeded random feeds the
// chunked store hands out exactly what the slice-growing store did —
// also when reads (which make series contiguous and recycle their
// chunks) are interleaved with further feeding.
func TestChunkedStoreMatchesReference(t *testing.T) {
	type shape struct {
		name                  string
		late, dups, zeroFirst bool
	}
	shapes := []shape{
		{name: "in-order"}, {name: "late", late: true}, {name: "duplicates", dups: true},
		{name: "zero-first", zeroFirst: true}, {name: "late+duplicates+zero-first", late: true, dups: true, zeroFirst: true},
	}
	seed := int64(100)
	for _, sh := range shapes {
		for _, limit := range []int{0, 16, 512} {
			for _, points := range []bool{false, true} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				t.Run(fmt.Sprintf("%s/cap=%d/points=%v", sh.name, limit, points), func(t *testing.T) {
					p := newStorePair(t, limit, points)
					const nSeries, nSamples = 10, 30000
					clock := make([]time.Time, nSeries)
					for n := 0; n < nSamples; n++ {
						// Skewed: series 0 is dense (spans every chunk class), the last ones sparse.
						i := int(float64(nSeries) * rng.Float64() * rng.Float64() * rng.Float64())
						var ts time.Time
						switch {
						case clock[i].IsZero():
							clock[i] = t0
							if !sh.zeroFirst {
								ts = t0
							}
						case sh.dups && rng.Intn(4) == 0:
							ts = clock[i]
						case sh.late && rng.Intn(200) == 0:
							ts = clock[i].Add(-time.Duration(1+rng.Intn(600_000)) * time.Millisecond)
						default:
							clock[i] = clock[i].Add(time.Duration(1+rng.Intn(2000)) * time.Millisecond)
							ts = clock[i]
						}
						p.feed(fmt.Sprintf("O%d", i%3), uint32(1000+i), ts, 50+20*rng.NormFloat64())
						switch rng.Intn(1500) {
						case 0:
							p.checkAll(rng)
						case 1, 2, 3:
							// One series read, the rest left chunked.
							key := p.ref.order[rng.Intn(len(p.ref.order))].Key
							s, ok := p.st.Get(key)
							if !ok {
								t.Fatalf("%v missing", key)
							}
							p.checkSeries(s, rng)
						case 4:
							for _, s := range p.st.ByStation("O1") {
								p.checkSeries(s, rng)
							}
						}
					}
					p.checkAll(rng)
				})
			}
		}
	}
}

// feedInOrder appends perSeries in-order samples to each of nSeries
// series, round robin, starting at sample number from.
func feedInOrder(st *Store, nSeries, from, perSeries int) {
	pts := make([]protocol.Point, 1)
	for n := from; n < from+perSeries; n++ {
		at := t0.Add(time.Duration(n) * time.Second)
		for i := 0; i < nSeries; i++ {
			pts[0] = protocol.Point{IOA: uint32(i), V: float64(n % 97)}
			st.FeedPoints("pmu", protocol.C37118, pts, at)
		}
	}
}

// TestStoreFeedAllocBytes: a sample is written once. Feeding 200 k
// in-order samples to 50 series allocates little more than their own
// 32 bytes each (slab and chunk-list slack); growing one slice per
// series allocated about 3.3 times that.
func TestStoreFeedAllocBytes(t *testing.T) {
	const nSeries, perSeries = 50, 4000
	st := NewStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feedInOrder(st, nSeries, 0, perSeries)
	runtime.ReadMemStats(&after)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / (nSeries * perSeries)
	t.Logf("%.1f B allocated per sample (a Sample is %d B)", perSample, reflect.TypeOf(Sample{}).Size())
	if limit := 1.15 * float64(reflect.TypeOf(Sample{}).Size()); perSample > limit {
		t.Fatalf("%.1f B allocated per sample fed, ceiling %.1f", perSample, limit)
	}
	if s, _ := st.Get(SeriesKey{Station: "pmu", IOA: 7}); len(s.Samples) != perSeries {
		t.Fatalf("series holds %d samples, fed %d", len(s.Samples), perSeries)
	}
}

// TestCappedStoreSteadyStateAllocs: once every series of a capped store
// has filled its window, feeding allocates nothing — evicted chunks are
// the next ones filled.
func TestCappedStoreSteadyStateAllocs(t *testing.T) {
	const nSeries, limit = 20, 512
	st := NewStore()
	st.SetMaxSamplesPerSeries(limit)
	feedInOrder(st, nSeries, 0, 4*limit)
	n := 4 * limit
	if allocs := testing.AllocsPerRun(20, func() {
		feedInOrder(st, nSeries, n, limit)
		n += limit
	}); allocs > 1 { // the one: feedInOrder's own point buffer
		t.Fatalf("%.1f allocations per %d samples fed at steady state, want none", allocs-1, nSeries*limit)
	}
}

// TestCappedSeriesSlabFootprint: the slab space behind a capped store
// stops growing once its series have been through two windows: a chunk
// that loses its front to eviction keeps its size class and is reused.
func TestCappedSeriesSlabFootprint(t *testing.T) {
	const nSeries, limit = 10, 100
	st := NewStore()
	st.SetMaxSamplesPerSeries(limit)
	feedInOrder(st, nSeries, 0, 2*limit)
	carved := st.carved
	feedInOrder(st, nSeries, 2*limit, 50*limit)
	if st.carved != carved || slabFootprint(st) != carved {
		t.Fatalf("slab footprint %d slots after two windows, %d (accounted: %d) after fifty-two",
			carved, st.carved, slabFootprint(st))
	}
	if s, _ := st.Get(SeriesKey{Station: "pmu", IOA: 3}); s.Len() > limit || s.Len() < limit/2 || s.Len()+s.Evicted() != 52*limit {
		t.Fatalf("window %d, evicted %d under cap %d", s.Len(), s.Evicted(), limit)
	}
}

// BenchmarkStoreFeed measures the append path alone, per sample, for
// the two shapes a capture holds: dense (a PMU stream's 14 400 samples
// per series) and sparse (a polled point's 40).
func BenchmarkStoreFeed(b *testing.B) {
	for _, bc := range []struct {
		name               string
		nSeries, perSeries int
	}{{"dense", 8, 14400}, {"sparse", 600, 40}} {
		b.Run(bc.name, func(b *testing.B) {
			samples := float64(bc.nSeries * bc.perSeries)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feedInOrder(NewStore(), bc.nSeries, 0, bc.perSeries)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*samples), "ns/sample")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(float64(b.N)*samples), "B/sample")
		})
	}
}
