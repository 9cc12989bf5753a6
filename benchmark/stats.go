package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles when even);
// NaN for an empty sample so a missing measurement cannot pass as 0.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailQuantile picks the tail to report next to a median: the highest
// of p90, p99 and p99.9 that still has tailBeyond samples above it, or
// — below 100 samples — the quantile that leaves exactly tailBeyond
// above. ok is false when even that does not exist (n <= tailBeyond).
func tailQuantile(n int) (q float64, ok bool) {
	if n <= tailBeyond {
		return 0, false
	}
	// Below 20 samples that quantile would sit under the median.
	q = max(0.5, 1-float64(tailBeyond)/float64(n))
	for _, std := range []float64{0.999, 0.99, 0.9} {
		if q >= std {
			return std, true
		}
	}
	return q, true
}

// tail is a reported tail percentile with its provenance.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tailOf reports xs's tail per tailQuantile. A sample too small to
// have one reports its maximum as the 1.0 quantile, which is what the
// rule degenerates to and keeps the value a usable number.
func tailOf(xs []float64) tail {
	q, ok := tailQuantile(len(xs))
	if !ok {
		q = 1
	}
	return tail{Value: quantile(xs, q), Percentile: q, Samples: len(xs)}
}

// pairedRatios divides each pass by the mean of the reference runs on
// either side of it: refs[i] ran just before pass i and refs[i+1] just
// after, so len(refs) must be len(passes)+1. Dividing by neighbours in
// time is what removes the machine's minute-scale speed drift.
func pairedRatios(passes, refs []float64) []float64 {
	if len(refs) != len(passes)+1 {
		panic("benchmark: pairedRatios needs one more reference than passes")
	}
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p / ((refs[i] + refs[i+1]) / 2)
	}
	return out
}

// normalised is the drift-free estimate of a pass-structured time: the
// median paired ratio scaled back to seconds by the frozen nominal
// cost of the reference kernel.
func normalised(passes, refs []float64, refNominal float64) float64 {
	return median(pairedRatios(passes, refs)) * refNominal
}

// driftFactor rescales a raw time that has no pass structure (a
// latency percentile) to the nominal machine speed.
func driftFactor(refs []float64, refNominal float64) float64 {
	return refNominal / median(refs)
}
