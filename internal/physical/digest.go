package physical

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"
)

// Digest is a mergeable moment sketch of one series: enough state to
// rank series by normalized variance across analysis shards without
// shipping raw samples. Mean/M2 follow Welford's accumulation, merged
// with the parallel (Chan et al.) update.
type Digest struct {
	Key     SeriesKey `json:"key"`
	Type    PointType `json:"type"`
	Command bool      `json:"command"`
	Count   int       `json:"count"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Mean    float64   `json:"mean"`
	M2      float64   `json:"-"` // sum of squared deviations from Mean
	First   time.Time `json:"first"`
	Last    time.Time `json:"last"`
}

// Variance returns the population variance, matching
// stats.Variance (zero below two samples).
func (d Digest) Variance() float64 {
	if d.Count < 2 {
		return 0
	}
	return d.M2 / float64(d.Count)
}

// NormalizedVariance matches stats.NormalizedVariance: variance over
// squared mean, or the raw variance for near-zero means.
func (d Digest) NormalizedVariance() float64 {
	v := d.Variance()
	if math.Abs(d.Mean) < 1e-9 {
		return v
	}
	return v / (d.Mean * d.Mean)
}

// merge folds another digest of the same series into d.
func (d *Digest) merge(o Digest) {
	if o.Count == 0 {
		return
	}
	if d.Count == 0 {
		*d = o
		return
	}
	if o.Min < d.Min {
		d.Min = o.Min
	}
	if o.Max > d.Max {
		d.Max = o.Max
	}
	if o.First.Before(d.First) {
		d.First = o.First
	}
	if o.Last.After(d.Last) {
		d.Last = o.Last
	}
	n1, n2 := float64(d.Count), float64(o.Count)
	delta := o.Mean - d.Mean
	n := n1 + n2
	d.M2 = d.M2 + o.M2 + delta*delta*n1*n2/n
	d.Mean = d.Mean + delta*n2/n
	d.Count += o.Count
}

// moments is the value half of a Digest — count, range, mean and M2 —
// small enough to sit beside a series' write cursor.
type moments struct {
	count              int
	min, max, mean, m2 float64
}

// observe folds one value (Welford's single-sample update).
func (m *moments) observe(v float64) {
	m.count++
	if m.count == 1 {
		m.min, m.max = v, v
	} else {
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
	}
	delta := v - m.mean
	m.mean += delta / float64(m.count)
	m.m2 += delta * (v - m.mean)
}

func (d *Digest) moments() moments { return moments{d.Count, d.Min, d.Max, d.Mean, d.M2} }

func (d *Digest) setMoments(m moments) {
	d.Count, d.Min, d.Max, d.Mean, d.M2 = m.count, m.min, m.max, m.mean, m.m2
}

// observe folds one sample into the digest.
func (d *Digest) observe(t time.Time, v float64) {
	m := d.moments()
	m.observe(v)
	d.setRun(m, t, t)
}

// setRun records a time-ordered run of samples folded into d: m is d's
// moments with the run's values observed, first and last the times of
// the run's two ends.
func (d *Digest) setRun(m moments, first, last time.Time) {
	if d.Count == 0 {
		d.First, d.Last = first, last
	} else {
		if first.Before(d.First) {
			d.First = first
		}
		if last.After(d.Last) {
			d.Last = last
		}
	}
	d.setMoments(m)
}

// observeAll folds samples, in order.
func (d *Digest) observeAll(samples []Sample) {
	for _, smp := range samples {
		d.observe(smp.T, smp.V)
	}
}

// Digest summarises one series over its full history: the retained
// window plus any samples evicted under the store's per-series cap.
// It is the fold of every sample in time order. A series only its store
// has written to has that fold ready — the store keeps the running
// moments in time order, late samples included, and the time bounds are
// those of the window's ends and the evicted prefix — which makes this
// O(1); a series whose Samples were filled in or appended to by hand is
// re-folded from the evicted prefix and the retained window.
func (s *Series) Digest() Digest {
	var d Digest
	if n := s.Len(); n > 0 && s.running.count == n+s.nEvicted {
		d.setMoments(s.running)
		// Ties go to the evicted prefix, as they do in the fold. A late
		// sample can sit in a capped window, so either end may be older
		// or newer than the prefix's.
		d.First, d.Last = s.firstTime(), s.lastTime()
		if s.nEvicted > 0 {
			if !d.First.Before(s.evicted.First) {
				d.First = s.evicted.First
			}
			if !d.Last.After(s.evicted.Last) {
				d.Last = s.evicted.Last
			}
		}
	} else {
		d = s.evicted
		d.observeAll(s.Samples)
		for i := range s.chunks {
			for _, p := range s.live(i) {
				d.observe(unpack(p.t), p.v)
			}
		}
	}
	d.Key, d.Type, d.Command = s.Key, s.Type, s.Command
	return d
}

// firstTime and lastTime return the time bounds of a non-empty series'
// window.
func (s *Series) firstTime() time.Time {
	if len(s.Samples) > 0 {
		return s.Samples[0].T
	}
	return unpack(s.chunks[0][s.head].t)
}

func (s *Series) lastTime() time.Time {
	if s.tail > 0 {
		return unpack(s.lastT)
	}
	return s.Samples[len(s.Samples)-1].T
}

// Digests summarises every series in first-seen order.
func (st *Store) Digests() []Digest {
	return st.AppendDigests(make([]Digest, 0, len(st.order)))
}

// AppendDigests appends every series' digest to dst in first-seen
// order and returns the extended list: Digests into a list the caller
// reuses.
func (st *Store) AppendDigests(dst []Digest) []Digest {
	for _, s := range st.order {
		dst = append(dst, s.Digest())
	}
	return dst
}

// compareKeys orders digests by series key: station, then IOA.
func compareKeys(a, b Digest) int {
	if c := strings.Compare(a.Key.Station, b.Key.Station); c != 0 {
		return c
	}
	return cmp.Compare(a.Key.IOA, b.Key.IOA)
}

// SortDigests orders a list of distinct series by key, in place: the
// order MergeDigests gives, without its copy. A shard's seal sorts its
// own fresh Store.Digests list this way.
func SortDigests(ds []Digest) { slices.SortFunc(ds, compareKeys) }

// MergeDigests combines digest lists from several shards: digests of
// the same series are folded together, and the result is sorted by
// series key for deterministic output. Each run of one series is folded
// into its first digest in list order — the lists' order, then each
// list's own — so the moments come out of the same merges in the same
// order whatever the key layout. The result is its one allocation, and
// the inputs are not modified.
//
// The lists a merge is given are sorted by key (a seal sorts its own,
// and a merge's result is sorted), so it merges them k ways, taking a
// tie from the earliest list. A list that is not sorted — a hand-built
// one, say — sends the merge to concatenating and stably sorting
// instead, which orders every run the same way.
func MergeDigests(lists ...[]Digest) []Digest {
	total, sorted := 0, true
	for _, list := range lists {
		total += len(list)
		sorted = sorted && slices.IsSortedFunc(list, compareKeys)
	}
	merged := make([]Digest, 0, total)
	if !sorted {
		for _, list := range lists {
			merged = append(merged, list...)
		}
		slices.SortStableFunc(merged, compareKeys)
		n := 0
		for i := range merged {
			n = fold(merged[:n], &merged[i])
		}
		return merged[:n]
	}
	// A min-heap of the lists' heads, by key and then list position;
	// pos[l] is list l's cursor. A handful of lists fit on the stack.
	var heapBuf, posBuf [16]int
	heads, pos := heapBuf[:0], posBuf[:0]
	for l, list := range lists {
		pos = append(pos, 0)
		if len(list) > 0 {
			heads = append(heads, l)
		}
	}
	less := func(a, b int) bool {
		if c := compareKeys(lists[a][pos[a]], lists[b][pos[b]]); c != 0 {
			return c < 0
		}
		return a < b
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i, less)
	}
	for len(heads) > 0 {
		l := heads[0]
		merged = merged[:fold(merged, &lists[l][pos[l]])]
		if pos[l]++; pos[l] == len(lists[l]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads, 0, less)
	}
	return merged
}

// fold appends d to the sorted list merged, or folds it into merged's
// last digest when that is d's series, and returns merged's new length.
// merged's capacity holds every digest of the merge.
func fold(merged []Digest, d *Digest) int {
	if n := len(merged); n > 0 && merged[n-1].Key == d.Key {
		merged[n-1].merge(*d)
		return n
	}
	merged = append(merged, *d)
	return len(merged)
}

// siftDown restores the heap order of h below position i.
func siftDown(h []int, i int, less func(a, b int) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// scored is a ranking candidate: its score and its index in the list
// being ranked.
type scored struct {
	score float64
	i     int
}

// sortScored orders candidates by decreasing score, ties by position:
// the order a stable sort of the list gives. A candidate is scored once
// and the sort moves 16-byte pairs without reflection: a Digest is 128
// bytes to swap and two divisions to score again.
func sortScored(rank []scored) {
	slices.SortFunc(rank, func(a, b scored) int {
		switch {
		case a.score > b.score:
			return -1
		case b.score > a.score:
			return 1
		}
		return cmp.Compare(a.i, b.i)
	})
}

// ranked returns the candidates' elements of xs ordered by decreasing
// score, ties in list order (nil for no candidates).
func ranked[E any](xs []E, rank []scored) []E {
	sortScored(rank)
	out := slices.Grow([]E(nil), len(rank))
	for _, r := range rank {
		out = append(out, xs[r.i])
	}
	return out
}

// RankDigests returns the positions in ds of the digests with at least
// minSamples, by decreasing normalized variance — the streaming
// counterpart of Store.Ranked. Positions rather than copies: a caller
// rendering the ranking reads each 128-byte digest once, in place.
func RankDigests(ds []Digest, minSamples int) []int {
	var r Ranker
	return r.Rank(ds, minSamples)
}

// Ranker is RankDigests for a caller that ranks again and again — a
// publisher, once a tick — keeping its candidate and position lists
// from one ranking to the next. The zero value is ready to use; it is
// not safe for concurrent use.
type Ranker struct {
	cand []scored
	pos  []int
}

// Rank is RankDigests. The positions it returns belong to the Ranker
// and are overwritten by its next Rank.
func (r *Ranker) Rank(ds []Digest, minSamples int) []int {
	r.cand = slices.Grow(r.cand[:0], len(ds))
	for i := range ds {
		if ds[i].Count >= minSamples {
			r.cand = append(r.cand, scored{ds[i].NormalizedVariance(), i})
		}
	}
	sortScored(r.cand)
	r.pos = slices.Grow(r.pos[:0], len(r.cand))
	for _, c := range r.cand {
		r.pos = append(r.pos, c.i)
	}
	return r.pos
}
