package stats

import (
	"math"
	"sort"
)

// KolmogorovSmirnov returns the two-sample KS statistic D: the largest
// absolute distance between the empirical CDFs of a and b. It is the
// distribution-shift test the drift engine applies to flow-duration
// and inter-arrival populations across captures. Returns ErrEmpty when
// either sample set is empty.
func KolmogorovSmirnov(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var d float64
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		// Advance past ties so D is evaluated between jump points.
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(as)) - float64(j)/float64(len(bs)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// KSSignificance returns the asymptotic p-value for a two-sample KS
// statistic d with sample sizes na and nb (Q_KS of Press et al.):
// small values mean the two samples are unlikely to share a
// distribution. Conservative for small samples.
func KSSignificance(d float64, na, nb int) float64 {
	if na <= 0 || nb <= 0 || d <= 0 {
		return 1
	}
	ne := float64(na) * float64(nb) / float64(na+nb)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	var q float64
	sign := 1.0
	for j := 1; j <= 100; j++ {
		term := sign * 2 * math.Exp(-2*lambda*lambda*float64(j*j))
		q += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// JensenShannon returns the Jensen–Shannon divergence between two
// discrete distributions given as weight maps (weights need not be
// normalised; zero-total maps count as empty). Log base 2, so the
// result is bounded [0, 1]: 0 for identical distributions, 1 for
// disjoint support. One empty and one non-empty distribution diverge
// maximally; two empty distributions do not diverge.
func JensenShannon(p, q map[string]float64) float64 {
	// Sum in key order: map order would move the last bits of the
	// result from one call to the next.
	keys := make([]string, 0, len(p)+len(q))
	for k := range p {
		keys = append(keys, k)
	}
	for k := range q {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var tp, tq float64
	for _, k := range keys {
		if v := p[k]; v > 0 {
			tp += v
		}
		if v := q[k]; v > 0 {
			tq += v
		}
	}
	if tp == 0 && tq == 0 {
		return 0
	}
	if tp == 0 || tq == 0 {
		return 1
	}
	var js float64
	for _, k := range keys {
		pp := math.Max(p[k], 0) / tp
		qq := math.Max(q[k], 0) / tq
		m := (pp + qq) / 2
		if pp > 0 {
			js += pp / 2 * math.Log2(pp/m)
		}
		if qq > 0 {
			js += qq / 2 * math.Log2(qq/m)
		}
	}
	if js < 0 {
		return 0
	}
	if js > 1 {
		return 1
	}
	return js
}
