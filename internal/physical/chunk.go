package physical

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// Sample storage. A store appends to fixed chunks carved from slabs it
// owns, so a sample is written once and never copied because its series
// grew; a series is copied into one exact-size slice only when somebody
// asks to read it. The sizes below are derived from what a series (or
// the store) already holds, the way append's growth is, and are not
// settings.
const (
	// A chunk is one of chunkClasses powers of two from minChunk samples up,
	// about an eighth of what its series holds when it is added: the
	// unfilled end of a series stays a bounded fraction of it (every
	// series of every shard carries one), and a long series still grows
	// by few chunks.
	minChunk     = 32
	chunkClasses = 5 // 32, 64, 128, 256, 512
	// Chunks are carved from slabs, so a chunk costs no allocation of
	// its own. A slab is as large as everything carved before it, within
	// these bounds (in samples), and a multiple of the largest chunk.
	minSlab = 1 << 10
	maxSlab = 16 << 10
	// chunkHeaders is the initial capacity of a series' chunk list.
	chunkHeaders = 8
)

// slot is a stored sample in the form chunks, slabs and free lists hold:
// sixteen bytes with no pointer in them, so the collector never scans a
// slab. t is the sample's time as UTC wall nanoseconds since the Unix
// epoch; a Sample is made of it only when somebody reads the series.
type slot struct {
	t int64
	v float64
}

// packSecMin and packSecMax bound the Unix seconds whose nanosecond count
// fits an int64 whatever the nanosecond field (1677-09-21 … 2262-04-11,
// a second short of the type's range at either end).
const (
	packSecMin = math.MinInt64/1_000_000_000 + 1
	packSecMax = math.MaxInt64/1_000_000_000 - 1
)

// pack returns ts as a slot time, or false when the slot form cannot
// hold ts exactly: it carries a zone or a monotonic reading (ts.UTC()
// drops both, so a time that survives it has neither) or lies outside
// the int64-nanosecond range, the zero time included. Every capture and
// codec in the module produces time.Unix(..).UTC() or
// time.Date(.., time.UTC) values, which pack; the others are kept as
// they are (Store.add) rather than rounded.
func pack(ts time.Time) (int64, bool) {
	if sec := ts.Unix(); sec < packSecMin || sec > packSecMax || ts != ts.UTC() {
		return 0, false
	}
	return ts.UnixNano(), true
}

// unpack is pack's inverse: the time t was packed from, equal to it as a
// struct.
func unpack(t int64) time.Time { return time.Unix(0, t).UTC() }

// sample returns the Sample a slot was stored from.
func (p slot) sample() Sample { return Sample{T: unpack(p.t), V: p.v} }

// chunkClass returns the size class of the chunk a series holding n
// samples takes next: the largest power of two not above n/8, within
// the chunk classes. A chunk of class c holds minChunk<<c samples.
func chunkClass(n int) int {
	c := bits.Len(uint(n)/(8*minChunk)) - 1
	return max(0, min(c, chunkClasses-1))
}

// grow gives s a new chunk to fill — one a series gave back if there is
// one of the right size, otherwise a piece of the slab.
func (st *Store) grow(s *Series) {
	c := chunkClass(s.Len())
	var chunk []slot
	if f := st.free[c]; len(f) > 0 {
		chunk, st.free[c] = f[len(f)-1], f[:len(f)-1]
	} else {
		chunk = st.carve(minChunk << c)
	}
	if s.chunks == nil {
		s.chunks = make([][]slot, 0, chunkHeaders)
	}
	s.chunks = append(s.chunks, chunk)
	s.cur = chunk[:0]
}

// carve cuts a chunk of size samples off the slab, starting a new slab
// when the current one cannot hold it. What is left of the old slab is a
// multiple of minChunk and goes to the free lists as whole chunks.
func (st *Store) carve(size int) []slot {
	if len(st.slab) < size {
		for rest := st.slab; len(rest) > 0; {
			n := minChunk << (bits.Len(uint(len(rest))/minChunk) - 1)
			st.release(rest[:n:n])
			rest = rest[n:]
		}
		n := max(minSlab, min(st.carved, maxSlab))
		st.slab = make([]slot, n)
		st.carved += n
	}
	chunk := st.slab[:size:size]
	st.slab = st.slab[size:]
	return chunk
}

// release puts a whole chunk on its size class's free list.
func (st *Store) release(chunk []slot) {
	c := bits.TrailingZeros(uint(len(chunk) / minChunk))
	st.free[c] = append(st.free[c], chunk)
}

// live returns the slots of s.chunks[i] that are part of the series.
func (s *Series) live(i int) []slot {
	c := s.chunks[i]
	if i == len(s.chunks)-1 {
		c = c[:len(s.cur)]
	}
	if i == 0 {
		c = c[s.head:]
	}
	return c
}

// contiguous makes Samples hold the whole retained window. A series
// without a tail — a hand-built one always — is left as it is.
func (s *Series) contiguous() {
	if s.tail > 0 {
		s.st.compact(s)
	}
}

// compact turns s's tail into Samples behind the ones it has, in one
// exact-size slice, and gives the chunks back. Only readers run it
// (contiguous): the one place a stored time becomes a time.Time again.
func (st *Store) compact(s *Series) {
	out := make([]Sample, 0, s.Len())
	out = append(out, s.Samples...)
	for i, c := range s.chunks {
		for _, p := range s.live(i) {
			out = append(out, p.sample())
		}
		st.release(c)
	}
	s.Samples = out
	clear(s.chunks) // a stale chunk header would keep its slab alive
	s.chunks = s.chunks[:0]
	s.cur, s.head, s.tail = nil, 0, 0
}

// insertLate stores a sample older than the series' last after every
// sample not newer than it: into Samples if it belongs there (a series a
// reader made contiguous), else into the tail as a slot, the slots behind
// it carried one place on; only a full cur allocates. The running moments
// are then re-folded in the history's new order — evicted prefix, Samples,
// tail — so that later in-order samples continue the updates a fold of
// the whole history makes: O(window) arithmetic per late sample.
func (st *Store) insertLate(s *Series, ts time.Time, v float64) {
	if n := len(s.Samples); s.tail == 0 || n > 0 && ts.Before(s.Samples[n-1].T) {
		idx := sort.Search(n, func(i int) bool { return s.Samples[i].T.After(ts) })
		s.Samples = append(s.Samples, Sample{})
		copy(s.Samples[idx+1:], s.Samples[idx:])
		s.Samples[idx] = Sample{T: ts, V: v}
	} else {
		// The place is the first slot newer than p, in the first chunk whose
		// last slot is newer (cur's is: it holds lastT; the others are full).
		p := slot{t: ts.UnixNano(), v: v} // a series with a tail packs all it is given
		i := len(s.chunks) - 1
		for i > 0 && s.chunks[i-1][len(s.chunks[i-1])-1].t > p.t {
			i--
		}
		live := s.live(i)
		j := sort.Search(len(live), func(k int) bool { return live[k].t > p.t })
		if len(s.cur) == cap(s.cur) {
			st.grow(s)
		}
		s.cur = s.cur[:len(s.cur)+1]
		s.tail++
		for ; i < len(s.chunks); i, j = i+1, 0 {
			c := s.live(i)[j:]
			last := c[len(c)-1]
			copy(c[1:], c)
			c[0], p = p, last
		}
	}
	s.running = s.evicted.moments()
	for _, smp := range s.Samples {
		s.running.observe(smp.V)
	}
	for i := range s.chunks {
		for _, p := range s.live(i) {
			s.running.observe(p.v)
		}
	}
}

// addPlain stores a sample of a series that keeps whole time.Time
// values: an ordinary append to Samples, or the late insert.
func (st *Store) addPlain(s *Series, ts time.Time, v float64) {
	if n := len(s.Samples); n > 0 && ts.Before(s.Samples[n-1].T) {
		st.insertLate(s, ts, v)
		return
	}
	s.Samples = append(s.Samples, Sample{T: ts, V: v})
	s.running.observe(v)
}

// evict folds the n oldest retained samples (fewer than the series
// holds) into the series' evicted digest and drops them. Evicting down
// to half the cap, rather than one sample at a time, keeps the amortized
// cost O(1) per fed sample. Whole chunks go back to the free lists; a
// chunk that keeps some samples is not re-sliced — it would no longer
// match a size class and could never be reused — its head offset moves.
// Of the slots it drops only the values are folded one by one: the
// window is in time order, so the run's time bounds are its two ends.
func (st *Store) evict(s *Series, n int) {
	s.nEvicted += n
	if k := min(n, len(s.Samples)); k > 0 {
		s.evicted.observeAll(s.Samples[:k])
		if s.Samples = s.Samples[k:]; len(s.Samples) == 0 {
			s.Samples = nil
		}
		n -= k
	}
	if n == 0 {
		return
	}
	m := s.evicted.moments()
	first := s.chunks[0][s.head].t
	var last int64
	drop := 0
	for n > 0 { // n is less than the tail holds: it ends inside a chunk's live part
		c := s.chunks[drop][s.head:]
		k := min(n, len(c))
		for _, p := range c[:k] {
			m.observe(p.v)
		}
		last = c[k-1].t
		n -= k
		s.tail -= k
		if k < len(c) {
			s.head += k
			break
		}
		st.release(s.chunks[drop])
		s.head = 0
		drop++
	}
	s.evicted.setRun(m, unpack(first), unpack(last))
	// Slide the list down rather than re-slice its front, so appending to
	// it does not reallocate for ever.
	kept := copy(s.chunks, s.chunks[drop:])
	clear(s.chunks[kept:])
	s.chunks = s.chunks[:kept]
}
