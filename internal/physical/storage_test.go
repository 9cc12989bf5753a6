package physical

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

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
		// zoned, mono: now and then a sample's time carries a zone or a
		// monotonic reading. The packed form holds neither, so such a
		// series moves to plain Samples midway — and must still hand
		// back, as structs, exactly the times it was given.
		zoned, mono bool
	}
	shapes := []shape{
		{name: "in-order"}, {name: "late", late: true}, {name: "duplicates", dups: true},
		{name: "zero-first", zeroFirst: true}, {name: "late+duplicates+zero-first", late: true, dups: true, zeroFirst: true},
		{name: "zoned", late: true, zoned: true}, {name: "monotonic", late: true, mono: true},
	}
	zone, now := time.FixedZone("CET", 3600), time.Now()
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
						if (sh.zoned || sh.mono) && rng.Intn(300) == 0 {
							if sh.zoned {
								ts = ts.In(zone)
							} else {
								ts = now.Add(ts.Sub(now)) // the same instant, with now's monotonic clock
							}
							if _, ok := pack(ts); ok {
								t.Fatalf("%v packs", ts)
							}
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
					if sh.zoned || sh.mono {
						var plain, packed int
						for _, s := range p.st.order {
							if s.plain() {
								plain++
							} else {
								packed++
							}
						}
						if plain == 0 || packed == 0 {
							t.Fatalf("%d plain and %d packed series: the shape must exercise both", plain, packed)
						}
					}
				})
			}
		}
	}
}

// TestEvictKeepsTimeBounds: eviction folds a dropped run's values one by
// one but takes its time bounds from the run's two ends. Over capped
// series whose evicted runs span chunks, end inside one, start in
// Samples (after a read) and contain late samples older than anything
// evicted before, Digest().First/Last are — as structs — what folding
// every evicted sample's time gives.
func TestEvictKeepsTimeBounds(t *testing.T) {
	for _, limit := range []int{2, 16, 100, 700} {
		rng := rand.New(rand.NewSource(int64(limit)))
		p := newStorePair(t, limit, true)
		clock := t0
		for n := 0; n < 20*limit+500; n++ {
			ts := clock
			switch rng.Intn(40) {
			case 0: // older than the whole history
				ts = t0.Add(-time.Duration(n+1) * time.Hour)
			case 1: // late, somewhere inside the window
				ts = clock.Add(-time.Duration(rng.Intn(limit)+1) * time.Second)
			default:
				clock = clock.Add(time.Second)
				ts = clock
			}
			p.feed("O1", 7, ts, rng.Float64())
			if rng.Intn(3*limit) == 0 {
				if _, ok := p.st.Get(SeriesKey{Station: "O1", IOA: 7}); !ok { // the read leaves the window in Samples
					t.Fatal("series missing")
				}
			}
			got, want := p.st.order[0].Digest(), refoldDigest(p.ref.order[0])
			if got.First != want.First || got.Last != want.Last {
				t.Fatalf("cap %d, sample %d: bounds %v … %v, per-sample fold %v … %v", limit, n, got.First, got.Last, want.First, want.Last)
			}
		}
		if s := p.st.order[0]; s.Evicted() < 15*limit || s.plain() {
			t.Fatalf("cap %d: %d evicted, plain %v", limit, s.Evicted(), s.plain())
		}
	}
}

// TestPackedSlotIsPointerFree: what chunks, slabs and free lists hold is
// sixteen bytes the collector has no reason to look at. A time.Time (or
// anything else with a pointer in it) back in the slot doubles the
// sample store and makes every slab scannable again.
func TestPackedSlotIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 16 {
		t.Errorf("a slot is %d bytes, want 16", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: the slot must hold no pointer", path, typ)
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
	for name, typ := range map[string]reflect.Type{
		"Series.chunks": reflect.TypeOf(Series{}.chunks).Elem().Elem(),
		"Series.cur":    reflect.TypeOf(Series{}.cur).Elem(),
		"Store.slab":    reflect.TypeOf(Store{}.slab).Elem(),
		"Store.free":    reflect.TypeOf(Store{}.free).Elem().Elem().Elem(),
	} {
		if typ != reflect.TypeOf(slot{}) {
			t.Errorf("%s holds %v, want slots", name, typ)
		}
	}
}

// FuzzPackedRoundTrip: the packed form never changes a time. Whatever
// instant, zone and clock a time carries, either pack refuses it or the
// slot gives back that time.Time as a struct (not merely an Equal one);
// through a Store the time comes back unchanged either way; and what
// every producer in the module emits — a UTC wall time between 1678 and
// 2262 — is never refused.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(int64(-62135596800), int64(0), 0, false) // the zero time
	for _, sec := range []int64{packSecMin, packSecMax} {
		for d := int64(-2); d <= 2; d++ { // 1677 and 2262, either side of what an int64 of nanoseconds holds
			f.Add(sec+d, int64(0), 0, false)
			f.Add(sec+d, int64(999_999_999), 0, false)
		}
	}
	f.Add(int64(1560000000), int64(5), 3600, false)  // a time.FixedZone
	f.Add(int64(1560000000), int64(5), 0, true)      // a monotonic reading, as time.Now() has
	f.Add(int64(946598400), int64(0), 0, false)      // a CP56 glitch tag: 2000-01-00
	f.Add(int64(1552294800), int64(-1), -7200, true) // nanoseconds that borrow a second
	now := time.Now()
	f.Fuzz(func(t *testing.T, sec, nsec int64, zoneOffset int, monotonic bool) {
		ts := time.Unix(sec, nsec).UTC()
		canonical := zoneOffset == 0 && !monotonic && ts.Unix() >= packSecMin && ts.Unix() <= packSecMax
		if monotonic {
			ts = now.Add(ts.Sub(now))
		}
		if zoneOffset != 0 {
			ts = ts.In(time.FixedZone("fuzz", zoneOffset%(24*3600)))
		}
		packed, ok := pack(ts)
		if ok {
			if got := (slot{t: packed, v: 1}).sample(); got.T != ts || got.V != 1 {
				t.Fatalf("%#v packed to %d comes back as %#v", ts, packed, got.T)
			}
		} else if canonical {
			t.Fatalf("%#v (UTC wall time in range) refused", ts)
		}
		// Behind a packed sample, alone, and in front of one.
		st := NewStore()
		st.FeedPoints("s", protocol.Modbus, []protocol.Point{{IOA: 1, V: 1}, {IOA: 2, V: 2, T: ts}, {IOA: 1, V: 3, T: ts}, {IOA: 3, V: 4, T: ts}}, t0)
		st.FeedPoints("s", protocol.Modbus, []protocol.Point{{IOA: 3, V: 5}}, t0)
		for ioa := uint32(1); ioa <= 3; ioa++ {
			s, _ := st.Get(SeriesKey{Station: "s", IOA: ioa})
			found := 0
			for _, smp := range s.Samples {
				if smp.T == ts || (ts.IsZero() && smp.T == t0) { // a zero point time means the capture time
					found++
				} else if smp.T != t0 {
					t.Fatalf("ioa %d: stored %#v, fed %#v and %#v", ioa, smp.T, ts, t0)
				}
			}
			if found == 0 || s.plain() != (!ok && !ts.IsZero()) {
				t.Fatalf("ioa %d: %#v found %d times in %v (plain %v, packs %v)", ioa, ts, found, s.Samples, s.plain(), ok)
			}
		}
	})
}

// TestSparseIOAStateBounded: the paged point index keeps state linear in
// the number of points however hostile their addresses. One point per
// page costs at most a page more per point than the densest layout (and
// no more than twice it: a point already costs a Series and a first
// chunk), the accessors list series exactly as a map-indexed store does,
// and the ends of the address space round-trip.
func TestSparseIOAStateBounded(t *testing.T) {
	const nPoints = 10000
	pts := make([]protocol.Point, 1)
	build := func(stride uint32) (*Store, float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st := NewStore()
		for i := uint32(0); i < nPoints; i++ {
			pts[0] = protocol.Point{IOA: i * stride, V: float64(i % 7)}
			st.FeedPoints("rtu", protocol.Modbus, pts, t0)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return st, float64(after.HeapAlloc-before.HeapAlloc) / nPoints
	}
	denseStore, dense := build(1)
	sparseStore, sparse := build(pageSize * 64) // stride 4096: every point on a page of its own
	t.Logf("%.0f B retained per point packed densely, %.0f B with one point per page (a page is %d B)", dense, sparse, unsafe.Sizeof(page{}))
	if limit := 2*dense + float64(unsafe.Sizeof(page{})); dense < 100 || sparse > limit {
		t.Fatalf("%.0f B per sparse point, ceiling %.0f (dense: %.0f)", sparse, limit, dense)
	}
	if n := len(sparseStore.stations["rtu"].pages); n != nPoints {
		t.Fatalf("%d pages for %d points at one per page", n, nPoints)
	}
	runtime.KeepAlive(denseStore)

	// Against a map-indexed reference: scattered stations and addresses,
	// the address-space ends included.
	rng := rand.New(rand.NewSource(21))
	p := newStorePair(t, 0, true)
	ends := []uint32{0, 1<<24 - 1, ^uint32(0), pageSize - 1, pageSize, ^uint32(0) - pageSize}
	for n := 0; n < 5000; n++ {
		ioa := rng.Uint32() >> uint(rng.Intn(32))
		if n < 3*len(ends) {
			ioa = ends[n%len(ends)]
		}
		p.feed(fmt.Sprintf("O%d", rng.Intn(4)), ioa, t0.Add(time.Duration(n)*time.Second), float64(rng.Intn(5)))
	}
	for _, ioa := range ends {
		for _, station := range []string{"O0", "O3", "nowhere"} {
			s, ok := p.st.Get(SeriesKey{Station: station, IOA: ioa})
			if r := p.ref.byKey[SeriesKey{Station: station, IOA: ioa}]; ok != (r != nil) || ok && s.Key != r.Key {
				t.Fatalf("Get(%s/%d) = %v, %v; reference %v", station, ioa, s, ok, r)
			}
		}
	}
	if _, ok := p.st.Get(SeriesKey{Station: "O0", IOA: 12345678}); ok || len(p.st.stations["O0"].pages) > len(p.ref.order) {
		t.Fatal("a lookup of an unknown point found one, or left a page behind")
	}
	for station := 0; station < 4; station++ {
		name := fmt.Sprintf("O%d", station)
		var want []SeriesKey
		for _, r := range p.ref.order {
			if r.Key.Station == name {
				want = append(want, r.Key)
			}
		}
		got := p.st.ByStation(name)
		if len(got) != len(want) {
			t.Fatalf("ByStation(%s): %d series, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i] {
				t.Fatalf("ByStation(%s)[%d] = %v, reference %v", name, i, got[i].Key, want[i])
			}
		}
	}
	p.checkAll(rng) // All, Digests and Ranked order, and every series' samples
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

// TestStoreFeedAllocBytes: a sample is written once, in packed form.
// Feeding 200 k in-order samples to 50 series allocates little more
// than a slot's 16 bytes each (slab and chunk-list slack); growing one
// slice of 32-byte Samples per series allocated about 6.6 times that.
func TestStoreFeedAllocBytes(t *testing.T) {
	const nSeries, perSeries = 50, 4000
	st := NewStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feedInOrder(st, nSeries, 0, perSeries)
	runtime.ReadMemStats(&after)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / (nSeries * perSeries)
	t.Logf("%.1f B allocated per sample (a slot is %d B)", perSample, unsafe.Sizeof(slot{}))
	if limit := 1.15 * float64(unsafe.Sizeof(slot{})); perSample > limit {
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

// feedPMUFrames feeds frames rounds of six PMU stations in turn, each a
// frame of 14 points addressed the way the C37.118 codec does
// (IDCode<<8 | channel), so consecutive calls never repeat a station.
func feedPMUFrames(st *Store, frames int) {
	const stations, points = 6, 14
	names := [stations]string{"pmu-1", "pmu-2", "pmu-3", "pmu-4", "pmu-5", "pmu-6"}
	pts := make([]protocol.Point, points)
	for n := 0; n < frames; n++ {
		at := t0.Add(time.Duration(n) * 20 * time.Millisecond)
		for id := range names {
			for j := range pts {
				pts[j] = protocol.Point{IOA: uint32(id+1)<<8 | uint32(j+1), V: float64(n % 97), T: at}
			}
			st.FeedPoints(names[id], protocol.C37118, pts, at)
		}
	}
}

// BenchmarkStoreFeed measures the append path alone, per sample, for
// the shapes a capture holds: dense (a PMU stream's 14 400 samples per
// series, one point a call), sparse (a polled point's 40) and pmu-frame
// (14 points of one station a call, six stations interleaved — each
// series' cursor has left the cache by the time its next sample comes).
func BenchmarkStoreFeed(b *testing.B) {
	for _, bc := range []struct {
		name    string
		samples int
		feed    func(*Store)
	}{
		{"dense", 8 * 14400, func(st *Store) { feedInOrder(st, 8, 0, 14400) }},
		{"sparse", 600 * 40, func(st *Store) { feedInOrder(st, 600, 0, 40) }},
		{"pmu-frame", 6 * 14 * 14400, func(st *Store) { feedPMUFrames(st, 14400) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			samples := float64(bc.samples)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.feed(NewStore())
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*samples), "ns/sample")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(float64(b.N)*samples), "B/sample")
		})
	}
}
