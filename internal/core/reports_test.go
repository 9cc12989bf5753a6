package core

import (
	"math"
	"math/rand"
	"testing"

	"uncharted/internal/stats"
)

// TestStandardizeMatchesStats: the clustering input standardized over
// one backing array equals stats.Standardize applied column by column,
// bit for bit — a constant column (all zeros) included — also when one
// workspace standardizes feature sets that grow and then shrink.
func TestStandardizeMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	var w Workspace
	for _, n := range []int{1, 2, 7, 180, 7} {
		feats := make([]SessionFeature, n)
		for i := range feats {
			feats[i] = SessionFeature{
				DeltaT: rng.ExpFloat64() * 3,
				Num:    float64(1 + rng.Intn(5000)),
				PctI:   rng.Float64(),
				PctS:   0.25, // constant
				PctU:   rng.Float64() * 1e-3,
			}
		}
		got := w.standardize(feats)
		for j := 0; j < 5; j++ {
			col := make([]float64, n)
			for i, f := range feats {
				col[i] = f.Vector()[j]
			}
			for i, want := range stats.Standardize(col) {
				if math.Float64bits(got[i][j]) != math.Float64bits(want) {
					t.Fatalf("n=%d: row %d column %d is %v, stats.Standardize gives %v", n, i, j, got[i][j], want)
				}
			}
		}
		for i := range got {
			if len(got[i]) != 5 || cap(got[i]) != 5 {
				t.Fatalf("n=%d: row %d has len %d cap %d, want 5 and 5", n, i, len(got[i]), cap(got[i]))
			}
		}
	}
}
