package physical

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
)

// refoldDigest is Series.Digest as it was before the running fold: the
// evicted prefix, then every retained sample in time order. It is the
// reference the running digest must equal bit for bit.
func refoldDigest(s *Series) Digest {
	d := s.evicted
	d.Key, d.Type, d.Command = s.Key, s.Type, s.Command
	for _, smp := range s.Samples {
		d.observe(smp.T, smp.V)
	}
	return d
}

// sameBits compares two digests exactly: identity, counts, times, and
// every float by its bit pattern (no tolerance, NaN == NaN).
func sameBits(a, b Digest) bool {
	bits := math.Float64bits
	return a.Key == b.Key && a.Type == b.Type && a.Command == b.Command && a.Count == b.Count &&
		bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max) &&
		bits(a.Mean) == bits(b.Mean) && bits(a.M2) == bits(b.M2) &&
		a.First.Equal(b.First) && a.Last.Equal(b.Last)
}

// isRunning reports whether the series answers Digest from its running
// fold (rather than re-reading its samples).
func isRunning(s *Series) bool { return s.running.count == len(s.Samples)+s.nEvicted }

// TestDigestsMatchRefold: over seeded random feeds — in time order,
// with late samples, with runs of one timestamp; capped and uncapped;
// through Feed and through FeedPoints — every series' Digest is
// bit-equal to the evicted-then-window fold, and every series answers
// from its running fold, one that took late samples included.
func TestDigestsMatchRefold(t *testing.T) {
	type shape struct {
		name       string
		late, dups bool
	}
	seed := int64(0)
	shapes := []shape{{"in-order", false, false}, {"duplicates", false, true}, {"late", true, false}, {"late+duplicates", true, true}}
	for _, sh := range shapes {
		for _, limit := range []int{0, 16} {
			for _, points := range []bool{false, true} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				t.Run(fmt.Sprintf("%s/cap=%d/points=%v", sh.name, limit, points), func(t *testing.T) {
					st := NewStore()
					st.SetMaxSamplesPerSeries(limit)
					const nSeries, nSamples = 12, 4000
					clock := make([]time.Time, nSeries)
					sawLate := make([]bool, nSeries)
					for i := range clock {
						clock[i] = t0
					}
					for n := 0; n < nSamples; n++ {
						i := rng.Intn(nSeries)
						ts := clock[i]
						switch {
						case sh.dups && rng.Intn(4) == 0:
							// same timestamp again: appended, still in order
						case sh.late && i%3 == 0 && rng.Intn(50) == 0 && ts.After(t0):
							ts = ts.Add(-time.Duration(1+rng.Intn(5000)) * time.Millisecond)
							sawLate[i] = true
						default:
							clock[i] = clock[i].Add(time.Duration(1+rng.Intn(2000)) * time.Millisecond)
							ts = clock[i]
						}
						v := 50 + 20*rng.NormFloat64()
						station, ioa := fmt.Sprintf("O%d", i%4), uint32(1000+i)
						if points {
							st.FeedPoints(station, protocol.Modbus, []protocol.Point{{IOA: ioa, V: v, T: ts}}, t0)
						} else {
							a := iec104.NewMeasurement(iec104.MMeNc, 1, ioa,
								iec104.Value{Kind: iec104.KindFloat, Float: v}, iec104.CauseSpontaneous)
							st.Feed(station, a, ts, false)
						}
					}
					digests := st.Digests()
					all := st.All()
					if len(all) != nSeries || len(digests) != nSeries {
						t.Fatalf("%d series, %d digests", len(all), len(digests))
					}
					evicted := 0
					for j, s := range all {
						want := refoldDigest(s)
						if !sameBits(digests[j], want) {
							t.Fatalf("%v: digest %+v, refold %+v", s.Key, digests[j], want)
						}
						if i := int(s.Key.IOA - 1000); !isRunning(s) {
							t.Fatalf("%v (took a late sample: %v) does not answer from its running fold", s.Key, sawLate[i])
						}
						evicted += s.Evicted()
					}
					if (limit > 0) != (evicted > 0) {
						t.Fatalf("cap %d evicted %d samples", limit, evicted)
					}
				})
			}
		}
	}
}

// TestRunningDigestDoesNotRereadSamples: a store-fed series answers
// Digest without looking at its samples — scribbling over them does not
// move it — which is what keeps a snapshot's cost independent of how
// long the capture has run. That holds for a series that took a late
// sample too: the history is re-folded at the insert, not at the seal.
func TestRunningDigestDoesNotRereadSamples(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		st.FeedPoints("pmu", protocol.C37118, []protocol.Point{{IOA: 1, V: float64(i)}}, at)
		if i == 60 {
			at = t0.Add(30500 * time.Millisecond) // late: belongs between samples 30 and 31
		}
		st.FeedPoints("pmu", protocol.C37118, []protocol.Point{{IOA: 2, V: float64(i)}}, at)
	}
	for ioa := uint32(1); ioa <= 2; ioa++ {
		s, _ := st.Get(SeriesKey{Station: "pmu", IOA: ioa})
		if ioa == 2 && s.Samples[31].V != 60 {
			t.Fatalf("late sample not in time order: %v", s.Samples[29:33])
		}
		want := s.Digest()
		if !sameBits(want, refoldDigest(s)) {
			t.Fatalf("ioa %d: digest %+v, refold %+v", ioa, want, refoldDigest(s))
		}
		for i := range s.Samples {
			s.Samples[i].V = -1
		}
		if got := s.Digest(); !sameBits(got, want) || math.Abs(got.Mean-49.5) > 1e-12 {
			t.Fatalf("ioa %d: digest %+v after the samples were overwritten, %+v before", ioa, got, want)
		}
	}
}

// TestHandBuiltSeriesDigest: a Series assembled by hand has no running
// fold and is digested from its samples; so is a store-fed series
// somebody appended to directly.
func TestHandBuiltSeriesDigest(t *testing.T) {
	s := mkSeries("O1", 1, []float64{1, 2, 3, 4}, time.Second)
	d := s.Digest()
	if d.Count != 4 || d.Mean != 2.5 || d.Min != 1 || d.Max != 4 || !d.First.Equal(t0) || !d.Last.Equal(t0.Add(3*time.Second)) {
		t.Fatalf("hand-built digest %+v", d)
	}

	st := NewStore()
	st.FeedPoints("O1", protocol.Modbus, []protocol.Point{{IOA: 7, V: 1}, {IOA: 7, V: 2}}, t0)
	fed, _ := st.Get(SeriesKey{Station: "O1", IOA: 7})
	fed.Samples = append(fed.Samples, Sample{T: t0.Add(time.Second), V: 6})
	if d := fed.Digest(); d.Count != 3 || d.Mean != 3 || d.Max != 6 || !sameBits(d, refoldDigest(fed)) {
		t.Fatalf("digest after a direct append %+v", d)
	}
}

// rankedByComparator is Store.Ranked as it was: NormalizedVariance
// evaluated inside the sort comparator.
func rankedByComparator(st *Store, minSamples int) []*Series {
	var out []*Series
	for _, s := range st.All() {
		if len(s.Samples)+s.Evicted() >= minSamples {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].NormalizedVariance() > out[j].NormalizedVariance()
	})
	return out
}

// TestRankedScoresOnce: scoring each series once ranks exactly as
// scoring inside the comparator did, ties included (several flat
// series share a variance of zero and must keep first-seen order).
func TestRankedScoresOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := NewStore()
	st.SetMaxSamplesPerSeries(64)
	for n := 0; n < 6000; n++ {
		i := rng.Intn(40)
		v := float64(i) // flat series: ties
		if i%3 != 0 {
			v = 100 + float64(i)*rng.NormFloat64()
		}
		st.FeedPoints("O", protocol.Modbus, []protocol.Point{{IOA: uint32(i), V: v}}, t0.Add(time.Duration(n)*time.Second))
	}
	for _, min := range []int{0, 100, 160} {
		got, want := st.Ranked(min), rankedByComparator(st, min)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("minSamples %d: ranked %d series, comparator version %d", min, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("minSamples %d: rank %d is %v, comparator version %v", min, i, got[i].Key, want[i].Key)
			}
		}
	}
}

// refMergeDigests is MergeDigests as it was before it folded sorted
// runs: the first digest of each series boxed behind a map, later ones
// merged into it in list order, then the distinct series sorted by key.
// Kept as the reference the fold is proven against.
func refMergeDigests(lists ...[]Digest) []Digest {
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	merged := make([]Digest, 0, total)
	byKey := make(map[SeriesKey]*Digest, total)
	for _, list := range lists {
		for _, d := range list {
			if cur, ok := byKey[d.Key]; ok {
				cur.merge(d)
				continue
			}
			merged = append(merged, d)
			byKey[d.Key] = &merged[len(merged)-1]
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Key.Station != merged[j].Key.Station {
			return merged[i].Key.Station < merged[j].Key.Station
		}
		return merged[i].Key.IOA < merged[j].Key.IOA
	})
	return merged
}

// TestMergeDigestsMatchesReference: over seeded lists with series
// repeated within a list and across lists (and some empty digests, which
// merge by replacement), MergeDigests folds every series' digests in the
// reference's order — moments equal bit for bit — leaves its inputs
// alone, and allocates only its result.
func TestMergeDigestsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	stations := []string{"O1", "O12", "O2", "pmu-7"}
	digest := func() Digest {
		d := Digest{
			Key:  SeriesKey{Station: stations[rng.Intn(len(stations))], IOA: uint32(rng.Intn(6))},
			Type: PointType(rng.Intn(3)),
		}
		if rng.Intn(8) == 0 {
			return d // empty: a later digest of the series replaces it
		}
		start := t0.Add(time.Duration(rng.Intn(1000)) * time.Second)
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			d.observe(start.Add(time.Duration(i)*time.Second), 50+20*rng.NormFloat64())
		}
		return d
	}
	for n := 0; n < 2000; n++ {
		lists := make([][]Digest, rng.Intn(5))
		for i := range lists {
			lists[i] = make([]Digest, rng.Intn(25))
			for j := range lists[i] {
				lists[i][j] = digest()
			}
		}
		before := make([][]Digest, len(lists))
		for i, l := range lists {
			before[i] = slices.Clone(l)
		}
		got, want := MergeDigests(lists...), refMergeDigests(lists...)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d digests, reference %d", n, len(got), len(want))
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("case %d: digest %d is %+v, reference %+v", n, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: merged lists differ beyond the moments", n)
		}
		if !reflect.DeepEqual(lists, before) {
			t.Fatalf("case %d: MergeDigests modified its inputs", n)
		}
	}

	lists := [][]Digest{make([]Digest, 40), make([]Digest, 40), make([]Digest, 40)}
	for _, l := range lists {
		for j := range l {
			l[j] = digest()
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { MergeDigests(lists...) }); allocs != 1 {
		t.Fatalf("MergeDigests allocates %.0f objects, want 1 (the result)", allocs)
	}
}

// refRankDigests is RankDigests as it was before it scored each digest
// once: filter, then a reflective stable sort recomputing the score per
// comparison. Kept as the reference the order is proven against.
func refRankDigests(ds []Digest, minSamples int) []Digest {
	var out []Digest
	for _, d := range ds {
		if d.Count >= minSamples {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].NormalizedVariance() > out[j].NormalizedVariance()
	})
	return out
}

// TestRankDigestsMatchesReference: over 10 000 seeded digest lists —
// tied scores, zero and near-zero means, counts on both sides of the
// minSamples cut-off, empty results — RankDigests returns exactly what
// the reference does, ties in input order, and leaves its input alone.
func TestRankDigestsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20200327))
	means := []float64{0, 1e-12, -1e-12, 1, -2, 60, 130000}
	m2s := []float64{0, 0.5, 4, 4, 1e6}
	for n := 0; n < 10000; n++ {
		ds := make([]Digest, rng.Intn(40))
		for i := range ds {
			ds[i] = Digest{
				Key:   SeriesKey{Station: "O1", IOA: uint32(i)},
				Count: rng.Intn(12),
				Mean:  means[rng.Intn(len(means))],
				M2:    m2s[rng.Intn(len(m2s))],
			}
			if rng.Intn(4) == 0 {
				ds[i].Mean, ds[i].M2 = rng.NormFloat64()*50, rng.Float64()*1000
			}
		}
		before := slices.Clone(ds)
		minSamples := rng.Intn(14)
		var got []Digest
		for _, i := range RankDigests(ds, minSamples) {
			got = append(got, ds[i])
		}
		want := refRankDigests(ds, minSamples)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list %d (%d digests, minSamples %d):\n got %v\nwant %v", n, len(ds), minSamples, got, want)
		}
		if !reflect.DeepEqual(ds, before) {
			t.Fatalf("list %d: RankDigests reordered its input", n)
		}
	}
}

// TestNonFiniteValuesSkipped: a short float whose wire bytes are NaN or
// an infinity, and a dialect point carrying one, leave the digests
// exactly as the finite values alone leave them — the mean of a series
// that saw one is not NaN, and a point that only ever carried them has
// no series.
func TestNonFiniteValuesSkipped(t *testing.T) {
	// frame marshals a one-object short-float measurement, then writes
	// bits over its float bytes, the way they would arrive off the wire.
	frame := func(ioa uint32, bits uint32) *iec104.ASDU {
		t.Helper()
		const marker = float32(1.5)
		b, err := iec104.NewMeasurement(iec104.MMeNc, 1, ioa, iec104.Value{Kind: iec104.KindFloat, Float: float64(marker)}, iec104.CauseSpontaneous).Marshal(iec104.Standard)
		if err != nil {
			t.Fatal(err)
		}
		var want [4]byte
		binary.LittleEndian.PutUint32(want[:], math.Float32bits(marker))
		at := bytes.Index(b, want[:])
		if at < 0 {
			t.Fatal("float bytes not found in the marshalled frame")
		}
		binary.LittleEndian.PutUint32(b[at:], bits)
		a, err := iec104.ParseASDU(b, iec104.Standard)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	t0 := time.Date(2019, 8, 1, 0, 0, 0, 0, time.UTC)
	nan, posInf, negInf := uint32(0x7fc00000), math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1)))
	if v := frame(1001, nan).Objects[0].Value.Float; !math.IsNaN(v) {
		t.Fatalf("patched frame decodes to %v, want NaN", v)
	}

	withBad, finite := NewStore(), NewStore()
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		good := frame(1001, math.Float32bits(float32(i)/4))
		withBad.Feed("O29", good, at, false)
		finite.Feed("O29", good, at, false)
		withBad.Feed("O29", frame(1001, []uint32{nan, posInf, negInf}[i%3]), at, false)
		withBad.Feed("O29", frame(2002, nan), at, false) // only ever NaN

		pt := protocol.Point{IOA: 7, V: float64(i)}
		withBad.FeedPoints("pmu", protocol.C37118, []protocol.Point{pt, {IOA: 7, V: math.NaN()}, {IOA: 8, V: math.Inf(1)}}, at)
		finite.FeedPoints("pmu", protocol.C37118, []protocol.Point{pt}, at)
	}
	got, want := withBad.Digests(), finite.Digests()
	if len(got) != len(want) {
		t.Fatalf("%d digests, want the finite feed's %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Errorf("digest %v = %+v, want the finite feed's %+v", want[i].Key, got[i], want[i])
		}
	}
}
