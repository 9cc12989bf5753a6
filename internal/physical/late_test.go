package physical

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uncharted/internal/protocol"
)

// window returns s's retained samples in time order without making s
// contiguous: Samples, then the live slots of its chunks, read where they
// lie.
func window(s *Series) []Sample {
	out := append([]Sample(nil), s.Samples...)
	for i := range s.chunks {
		for _, p := range s.live(i) {
			out = append(out, p.sample())
		}
	}
	return out
}

// checkInPlace compares one series with its reference without a read
// that would compact it: the window, the counts, the digest's bits and
// that it comes from the running fold, and the store's slot accounting.
func (p *storePair) checkInPlace(s *Series) {
	p.t.Helper()
	r := p.ref.byKey[s.Key]
	if got := window(s); !reflect.DeepEqual(got, r.Samples) {
		p.t.Fatalf("%v: window %v, reference %v", s.Key, got, r.Samples)
	}
	if s.Len() != len(r.Samples) || s.Evicted() != r.nEvicted {
		p.t.Fatalf("%v: Len %d Evicted %d, reference %d %d", s.Key, s.Len(), s.Evicted(), len(r.Samples), r.nEvicted)
	}
	if s.running.count != s.Len()+s.nEvicted {
		p.t.Fatalf("%v: running fold holds %d samples, the history %d", s.Key, s.running.count, s.Len()+s.nEvicted)
	}
	if got, want := s.Digest(), refoldDigest(r); !sameBits(got, want) {
		p.t.Fatalf("%v: digest %+v, reference %+v", s.Key, got, want)
	}
	p.checkConservation()
}

// lateRun feeds one series of a store pair: in-order samples a second
// apart, each value the sample's number, and late samples checked
// against the reference as they land.
type lateRun struct {
	*storePair
	clock time.Time
	n     int
	s     *Series
}

func (r *lateRun) put(ts time.Time) {
	r.n++
	r.feed("O1", 7, ts, float64(r.n))
	r.s = r.st.order[0]
}

func (r *lateRun) inOrder(n int) {
	for ; n > 0; n-- {
		r.clock = r.clock.Add(time.Second)
		r.put(r.clock)
	}
}

// until feeds in-order samples until cond holds.
func (r *lateRun) until(what string, cond func() bool) {
	r.t.Helper()
	for fed := 0; !cond(); fed++ {
		if fed == 10_000 {
			r.t.Fatalf("no %s after %d samples", what, fed)
		}
		r.inOrder(1)
	}
}

// settled: a window to insert into, and under a cap one that has
// evicted.
func (r *lateRun) settled() bool {
	if r.ref.maxSamples > 0 {
		return r.s.Evicted() > 0
	}
	return r.s.Len() >= 40
}

// late feeds a sample older than the series' newest and checks the store.
func (r *lateRun) late(ts time.Time) {
	r.t.Helper()
	if !ts.Before(unpack(r.s.lastT)) {
		r.t.Fatalf("%v is not late", ts)
	}
	r.put(ts)
	r.checkInPlace(r.s)
}

// lateCases are where a late sample can land in a series' tail.
var lateCases = []struct {
	name string
	run  func(r *lateRun)
}{
	{"front-of-chunk-0-after-eviction", func(r *lateRun) {
		r.until("evicted chunk front", func() bool { return r.settled() && (r.ref.maxSamples == 0 || r.s.head > 0) })
		for k := 0; k < 4; k++ {
			r.late(unpack(r.s.live(0)[0].t).Add(-time.Second / 4))
			r.inOrder(3)
		}
	}},
	{"past-a-full-chunk", func(r *lateRun) {
		for k := 0; k < 4; k++ {
			r.until("second chunk", func() bool { return r.settled() && len(r.s.chunks) >= 2 })
			full := r.s.live(len(r.s.chunks) - 2)
			r.late(unpack(full[len(full)-1].t).Add(time.Second / 4)) // before cur's first
			r.inOrder(1 + k*7)
		}
	}},
	{"into-a-full-cur", func(r *lateRun) {
		for k := 0; k < 4; k++ {
			r.until("full cur", func() bool { return r.settled() && len(r.s.cur) == cap(r.s.cur) })
			r.late(r.clock.Add(-2*time.Second - time.Second/2))
			r.inOrder(1)
		}
	}},
	{"among-equal-times", func(r *lateRun) {
		r.until("window", r.settled)
		for k := 0; k < 3; k++ {
			at := r.clock
			for d := 0; d < 9; d++ { // a run of one time, across a chunk end somewhere
				r.put(at)
			}
			r.inOrder(2)
			r.late(at)
			r.late(at)
			r.inOrder(20)
		}
	}},
	{"in-front-of-the-window", func(r *lateRun) {
		r.until("window", r.settled)
		ancient := t0.AddDate(-18, 0, 0) // a CP56 tag from a clock that was never set
		for k := 0; k < 6; k++ {
			r.late(ancient.Add(time.Duration(k%3) * time.Second))
			r.inOrder(5)
		}
	}},
	{"into-samples-after-get", func(r *lateRun) {
		r.until("window", r.settled)
		for k := 0; k < 3; k++ {
			if _, ok := r.st.Get(r.s.Key); !ok {
				r.t.Fatal("series missing")
			}
			r.inOrder(1)
			if len(r.s.Samples) < 2 || r.s.tail == 0 {
				r.t.Fatalf("%d in Samples, %d in the tail", len(r.s.Samples), r.s.tail)
			}
			among, last := r.s.Samples[len(r.s.Samples)/2].T.Add(time.Second/4), r.s.Samples[len(r.s.Samples)-1].T
			r.late(among)
			r.late(last) // a tie: after Samples, at the tail's front
			r.inOrder(3)
		}
	}},
}

// TestLateSampleShiftsInPlace: a late sample is written where it belongs
// in the chunked tail — at the front of chunk 0 behind evicted slots,
// just past a full chunk (the next one's front), into a full cur that
// must grow, after a run of equal times, in front of the whole window —
// or into Samples when a read left it there. After every insert the
// window, read where it lies, is the reference's sample for sample, the
// digest is the refold's bit for bit, and no slot is lost.
func TestLateSampleShiftsInPlace(t *testing.T) {
	for _, c := range lateCases {
		for _, limit := range []int{0, 16, 512} {
			t.Run(fmt.Sprintf("%s/cap=%d", c.name, limit), func(t *testing.T) {
				r := &lateRun{storePair: newStorePair(t, limit, true), clock: t0}
				r.put(t0)
				c.run(r)
				r.checkAll(rand.New(rand.NewSource(int64(limit))))
			})
		}
	}
}

// TestLateSampleAllocs: a late sample costs a shift, not a conversion.
// In a warmed store whose series all have room in the chunk they are
// filling, 1 000 late samples spread over them allocate nothing and
// carve no slab space.
func TestLateSampleAllocs(t *testing.T) {
	const nSeries, perSeries, late = 100, 40, 1000
	st := NewStore()
	feedInOrder(st, nSeries, 0, perSeries) // a full chunk of 32 and 24 free slots in cur, each
	carved := st.carved
	pts := make([]protocol.Point, 1)
	n := 0
	// AllocsPerRun adds a warm-up run: 2 000 late samples, 20 a series.
	if allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < late; k++ {
			ts := t0.Add(time.Duration(n%perSeries)*time.Second - time.Second/2)
			pts[0] = protocol.Point{IOA: uint32(n % nSeries), V: -1, T: ts}
			st.FeedPoints("pmu", protocol.C37118, pts, ts)
			n++
		}
	}); allocs != 0 || st.carved != carved {
		t.Fatalf("%d late samples: %.0f allocations, %d slab slots carved (before: %d)", late, allocs, st.carved, carved)
	}
	for _, s := range st.order {
		if s.Len() != perSeries+2*late/nSeries || len(s.chunks) != 2 {
			t.Fatalf("%v: %d samples in %d chunks", s.Key, s.Len(), len(s.chunks))
		}
	}
}

// Fuzz operations, two bytes each: an op and its argument, whose low bit
// picks one of two series.
const (
	opInOrder = iota // (arg>>1)+1 samples a second apart
	opLate           // one sample (arg>>1)+1 half seconds before the newest
	opDup            // one more sample at the newest's time
	opGet            // read one series
	opAll            // read them all
	nOps
)

// fuzzOps encodes operations for a seed.
func fuzzOps(ops ...[2]int) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(op[0]), byte(op[1]))
	}
	return b
}

func inOrderOp(series, n int) [2]int   { return [2]int{opInOrder, (n-1)<<1 | series} }
func lateOp(series, halves int) [2]int { return [2]int{opLate, (halves-1)<<1 | series} }

// FuzzStoreMatchesReference: whatever sequence of in-order, late and
// duplicate samples two series are fed, with reads of one or all of them
// in between and a cap of 0, 2 or 16, after every operation the store
// agrees with the reference on every series' window and digest bits, no
// slot is lost, and the slab space is bounded by what is live: carved
// slots, less the newest slab, at most 4 per live sample. (A chunk is
// added at about an eighth of its series, minChunk at least, and what
// series give back is reused by size class.) The seeds are the position
// test's six cases.
func FuzzStoreMatchesReference(f *testing.F) {
	seeds := [][]byte{
		fuzzOps(inOrderOp(1, 3), inOrderOp(0, 20), lateOp(0, 21), lateOp(0, 39), inOrderOp(1, 2)),
		fuzzOps(inOrderOp(0, 40), lateOp(0, 15), inOrderOp(0, 30), lateOp(0, 15)),
		fuzzOps(inOrderOp(0, 32), lateOp(0, 5), inOrderOp(0, 31), lateOp(0, 5)),
		fuzzOps(inOrderOp(0, 30), [2]int{opDup, 0}, [2]int{opDup, 0}, [2]int{opDup, 0}, [2]int{opDup, 0},
			[2]int{opDup, 0}, inOrderOp(0, 5), lateOp(0, 10), lateOp(0, 10)),
		fuzzOps(inOrderOp(0, 40), lateOp(0, 128), inOrderOp(0, 3), lateOp(0, 128), inOrderOp(1, 1), lateOp(1, 1)),
		fuzzOps(inOrderOp(0, 40), [2]int{opGet, 0}, inOrderOp(0, 10), lateOp(0, 30), lateOp(0, 20), [2]int{opAll, 0}),
	}
	for _, seed := range seeds {
		for limit := byte(0); limit < 3; limit++ {
			f.Add(append([]byte{limit}, seed...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := [...]int{0, 2, 16}[data[0]%3]
		ops := data[1:]
		if len(ops) > 128 { // 64 operations, up to 8 192 samples: tens of milliseconds at worst
			ops = ops[:128]
		}
		p := newStorePair(t, limit, true)
		rng := rand.New(rand.NewSource(int64(len(data))))
		var clock [2]time.Time
		n := 0
		put := func(i int, ts time.Time) {
			n++
			p.feed("O1", uint32(i), ts, float64(n))
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			i, k := int(ops[1]&1), int(ops[1]>>1)
			key := SeriesKey{Station: "O1", IOA: uint32(i)}
			switch ops[0] % nOps {
			case opInOrder:
				for ; k >= 0; k-- {
					if clock[i].IsZero() {
						clock[i] = t0
					} else {
						clock[i] = clock[i].Add(time.Second)
					}
					put(i, clock[i])
				}
			case opLate:
				if !clock[i].IsZero() {
					put(i, clock[i].Add(-time.Duration(k+1)*time.Second/2))
				}
			case opDup:
				if !clock[i].IsZero() {
					put(i, clock[i])
				}
			case opGet:
				if s, ok := p.st.Get(key); ok != !clock[i].IsZero() {
					t.Fatalf("Get(%v) found %v", key, ok)
				} else if ok {
					p.checkSeries(s, rng)
				}
			case opAll:
				p.checkAll(rng)
			}
			live := 0
			for _, s := range p.st.order {
				p.checkInPlace(s)
				live += s.Len()
			}
			newest := max(minSlab, min(p.st.carved/2, maxSlab)) // a slab is at most what was carved before it
			if p.st.carved-newest > 4*live {
				t.Fatalf("%d slab slots carved for %d live samples", p.st.carved, live)
			}
		}
	})
}
