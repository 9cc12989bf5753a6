package physical

import (
	"math"
	"sort"
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

// observe folds one sample into the digest.
func (d *Digest) observe(t time.Time, v float64) {
	d.observeValue(v)
	if d.Count == 1 {
		d.First, d.Last = t, t
		return
	}
	if t.Before(d.First) {
		d.First = t
	}
	if t.After(d.Last) {
		d.Last = t
	}
}

// observeValue folds one value into the count, range and moments
// (Welford's single-sample update), leaving the time bounds alone.
func (d *Digest) observeValue(v float64) {
	d.Count++
	if d.Count == 1 {
		d.Min, d.Max = v, v
	} else {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
	}
	delta := v - d.Mean
	d.Mean += delta / float64(d.Count)
	d.M2 += delta * (v - d.Mean)
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
	d := s.running
	if n := s.Len(); n > 0 && d.Count == n+s.nEvicted {
		// Ties go to the evicted prefix, as they do in the fold. A late
		// sample can sit in a capped window, so either end may be older
		// or newer than the prefix's.
		d.First, d.Last = s.first().T, s.last().T
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
			d.observeAll(s.live(i))
		}
	}
	d.Key, d.Type, d.Command = s.Key, s.Type, s.Command
	return d
}

// first and last return the ends of a non-empty series' window.
func (s *Series) first() Sample {
	if len(s.Samples) > 0 {
		return s.Samples[0]
	}
	return s.chunks[0][s.head]
}

func (s *Series) last() Sample {
	if k := len(s.chunks); k > 0 {
		return s.chunks[k-1][s.fill-1]
	}
	return s.Samples[len(s.Samples)-1]
}

// Digests summarises every series in first-seen order.
func (st *Store) Digests() []Digest {
	out := make([]Digest, 0, len(st.order))
	for _, s := range st.order {
		out = append(out, s.Digest())
	}
	return out
}

// MergeDigests combines digest lists from several shards: digests of
// the same series are folded together, and the result is sorted by
// series key for deterministic output.
func MergeDigests(lists ...[]Digest) []Digest {
	// One backing array holds every distinct digest; total is an upper
	// bound and the slice never regrows, so the map's pointers into it
	// stay valid. This keeps the merge to O(1) allocations rather than
	// one boxed Digest per series per call.
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

// RankDigests orders digests with at least minSamples by decreasing
// normalized variance — the streaming counterpart of Store.Ranked.
func RankDigests(ds []Digest, minSamples int) []Digest {
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
