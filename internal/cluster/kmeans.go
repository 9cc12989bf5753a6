// Package cluster implements the unsupervised toolkit of the paper's
// traffic analysis (§6.3): K-means++ clustering with the elbow method
// (sum of squared error), explained variance and silhouette scores for
// model selection, and principal component analysis for 2-D
// visualisation of the session feature space.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors.
var (
	ErrNoPoints  = errors.New("cluster: no points")
	ErrBadK      = errors.New("cluster: k must be in [1, len(points)]")
	ErrDimension = errors.New("cluster: inconsistent point dimensions")
)

// Result is a fitted K-means model.
type Result struct {
	K         int
	Centroids [][]float64
	// Assign maps each input point to its cluster index.
	Assign []int
	// SSE is the sum of squared distances to assigned centroids (the
	// elbow-method quantity).
	SSE float64
	// Iterations actually used by Lloyd's algorithm.
	Iterations int
}

// Sizes returns the number of points per cluster.
func (r *Result) Sizes() []int {
	out := make([]int, r.K)
	for _, a := range r.Assign {
		out[a]++
	}
	return out
}

func checkPoints(points [][]float64) (dim int, err error) {
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	dim = len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return 0, fmt.Errorf("%w: point %d has %d dims, want %d", ErrDimension, i, len(p), dim)
		}
	}
	return dim, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans clusters points into k groups using K-means++ seeding and
// Lloyd iterations. The rng makes runs reproducible; pass
// rand.New(rand.NewSource(seed)).
func KMeans(points [][]float64, k int, rng *rand.Rand) (*Result, error) {
	return new(Workspace).KMeans(points, k, rng)
}

// Workspace holds the arrays of a fit — assignments, centroids, their
// running sums and counts and the K-means++ distances — for a caller
// that fits again and again, such as a rolling profile refitted every
// publish. The zero value is ready to use; it is not safe for
// concurrent use.
type Workspace struct {
	assign, counts  []int
	sums, centroids [][]float64
	flat, d2        []float64
	res             Result
}

// KMeans is the package's KMeans over the workspace's arrays: the same
// fit, bit for bit, but the Result and its Centroids and Assign belong
// to the workspace and are overwritten by its next KMeans.
func (w *Workspace) KMeans(points [][]float64, k int, rng *rand.Rand) (*Result, error) {
	dim, err := checkPoints(points)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > len(points) {
		return nil, fmt.Errorf("%w: k=%d with %d points", ErrBadK, k, len(points))
	}
	w.flat = zeroed(w.flat, 2*k*dim)
	w.sums = rowsOver(w.sums, w.flat[:k*dim], k, dim)
	w.centroids = rowsOver(w.centroids, w.flat[k*dim:], k, dim)
	w.d2 = zeroed(w.d2, len(points))
	w.assign = zeroed(w.assign, len(points))
	w.counts = zeroed(w.counts, k)
	w.res = Result{K: k}
	lloyd(&w.res, points, seedPlusPlus(points, w.centroids, w.d2, rng), w.assign, w.sums, w.counts)
	return &w.res, nil
}

// zeroed returns s resized to n zero values, reusing its array when it
// is large enough.
func zeroed[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// rowsOver returns n rows of dim values over flat, each capped at its
// own length, reusing rows' array when it is large enough.
func rowsOver(rows [][]float64, flat []float64, n, dim int) [][]float64 {
	if cap(rows) < n {
		rows = make([][]float64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

// lloyd runs Lloyd iterations from the given centroids, which it moves,
// into res. assign starts zeroed; sums and counts are its scratch.
func lloyd(res *Result, points, centroids [][]float64, assign []int, sums [][]float64, counts []int) {
	const maxIter = 200
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		res.Iterations = iter + 1
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; empty clusters keep their previous
		// position (K-means++ seeding makes them rare).
		for c := range sums {
			clear(sums[c])
		}
		clear(counts)
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	res.Centroids = centroids
	res.Assign = assign
	for i, p := range points {
		res.SSE += sqDist(p, centroids[assign[i]])
	}
}

// seedPlusPlus picks initial centroids into slots, one row per cluster,
// with the K-means++ D² weighting; d2 holds one distance per point.
func seedPlusPlus(points, slots [][]float64, d2 []float64, rng *rand.Rand) [][]float64 {
	k := len(slots)
	centroids := slots[:1]
	copy(centroids[0], points[rng.Intn(len(points))])

	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		idx := 0
		if total > 0 {
			r := rng.Float64() * total
			for i, d := range d2 {
				r -= d
				if r <= 0 {
					idx = i
					break
				}
			}
		} else {
			// All points coincide with centroids; pick any.
			idx = rng.Intn(len(points))
		}
		centroids = slots[:len(centroids)+1]
		copy(centroids[len(centroids)-1], points[idx])
	}
	return centroids
}

// SeedNaive picks the first k points as centroids — the baseline the
// ablation bench compares K-means++ against.
func SeedNaive(points [][]float64, k int) [][]float64 {
	centroids := make([][]float64, 0, k)
	for i := 0; i < k; i++ {
		centroids = append(centroids, append([]float64(nil), points[i]...))
	}
	return centroids
}

// KMeansWithSeeds runs Lloyd iterations from the given centroids
// (copied), for ablation comparisons.
func KMeansWithSeeds(points [][]float64, seeds [][]float64) (*Result, error) {
	dim, err := checkPoints(points)
	if err != nil {
		return nil, err
	}
	if len(seeds) == 0 || len(seeds) > len(points) {
		return nil, ErrBadK
	}
	k := len(seeds)
	centroids := make([][]float64, k)
	for i, s := range seeds {
		centroids[i] = append([]float64(nil), s...)
	}
	res := &Result{K: k}
	sums := rowsOver(nil, make([]float64, k*dim), k, dim)
	lloyd(res, points, centroids, make([]int, len(points)), sums, make([]int, k))
	return res, nil
}

// Silhouette returns the mean silhouette coefficient of a clustering:
// (b-a)/max(a,b) per point, where a is the mean intra-cluster distance
// and b the smallest mean distance to another cluster. Single-member
// clusters contribute 0, matching scikit-learn's convention.
func Silhouette(points [][]float64, assign []int, k int) (float64, error) {
	if len(points) != len(assign) {
		return 0, fmt.Errorf("cluster: %d points but %d assignments", len(points), len(assign))
	}
	if len(points) == 0 {
		return 0, ErrNoPoints
	}
	if k < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs k >= 2, got %d", k)
	}
	sizes := make([]int, k)
	for _, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("cluster: assignment %d out of range", a)
		}
		sizes[a]++
	}
	var total float64
	sums := make([]float64, k)
	for i, p := range points {
		// Mean distance to each cluster.
		clear(sums)
		for j, q := range points {
			if i == j {
				continue
			}
			sums[assign[j]] += math.Sqrt(sqDist(p, q))
		}
		own := assign[i]
		if sizes[own] <= 1 {
			continue // silhouette 0
		}
		a := sums[own] / float64(sizes[own]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || sizes[c] == 0 {
				continue
			}
			if m := sums[c] / float64(sizes[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
	}
	return total / float64(len(points)), nil
}

// ExplainedVariance returns 1 - SSE/TSS: the fraction of total variance
// the clustering explains.
func ExplainedVariance(points [][]float64, res *Result) (float64, error) {
	dim, err := checkPoints(points)
	if err != nil {
		return 0, err
	}
	mean := make([]float64, dim)
	for _, p := range points {
		for j, v := range p {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(points))
	}
	var tss float64
	for _, p := range points {
		tss += sqDist(p, mean)
	}
	if tss == 0 {
		return 1, nil
	}
	return 1 - res.SSE/tss, nil
}

// ElbowPoint is one K-sweep entry for model selection.
type ElbowPoint struct {
	K          int
	SSE        float64
	Silhouette float64
	Explained  float64
}

// Sweep fits K = 2..maxK and reports the selection criteria the paper
// used (elbow on SSE, explained variance, silhouette). The returned
// BestK maximises the silhouette score.
func Sweep(points [][]float64, maxK int, rng *rand.Rand) (elbow []ElbowPoint, bestK int, err error) {
	if maxK < 2 {
		return nil, 0, fmt.Errorf("cluster: sweep needs maxK >= 2")
	}
	bestSil := math.Inf(-1)
	for k := 2; k <= maxK && k <= len(points); k++ {
		res, err := KMeans(points, k, rng)
		if err != nil {
			return nil, 0, err
		}
		sil, err := Silhouette(points, res.Assign, k)
		if err != nil {
			return nil, 0, err
		}
		ev, err := ExplainedVariance(points, res)
		if err != nil {
			return nil, 0, err
		}
		elbow = append(elbow, ElbowPoint{K: k, SSE: res.SSE, Silhouette: sil, Explained: ev})
		if sil > bestSil {
			bestSil = sil
			bestK = k
		}
	}
	return elbow, bestK, nil
}
