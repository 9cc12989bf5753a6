package experiments

import (
	"fmt"
	"strings"

	"uncharted/internal/core"
	"uncharted/internal/topology"
)

// Fig10Clusters regenerates the K-means++ clustering of Y1 sessions
// with the paper's K=5, including the model-selection sweep and the
// PCA projection extents.
func (r *Runner) Fig10Clusters() (Result, error) {
	a, err := r.Analyzer(topology.Y1)
	if err != nil {
		return Result{}, err
	}
	rep, err := a.ClusterSessions(5, core.ClusterSeed)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	// The §6.3 feature selection: ten candidates scored individually
	// by silhouette, five survive.
	if scores, err := a.SelectFeatures(core.ClusterSeed); err == nil {
		b.WriteString("Feature selection (10 candidates -> 5, per-feature silhouette):\n")
		for _, s := range scores {
			mark := " "
			if s.Selected {
				mark = "*"
			}
			fmt.Fprintf(&b, "  %s %-14s %.3f\n", mark, s.Name, s.Silhouette)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Sessions clustered: %d   K=5 (paper: elbow/variance/silhouette all suggest K=5)\n", len(rep.Features))
	fmt.Fprintf(&b, "SSE=%.1f  silhouette=%.3f\n\nModel selection sweep:\n", rep.SSE, rep.Sil)
	for _, e := range rep.Elbow {
		fmt.Fprintf(&b, "  K=%d  SSE=%9.1f  explained=%.3f  silhouette=%.3f\n",
			e.K, e.SSE, e.Explained, e.Silhouette)
	}
	fmt.Fprintf(&b, "\nCluster sizes: %v\n", rep.Sizes)
	fmt.Fprintf(&b, "Outlier cluster members (paper's cluster 0 was {C2>O30, C4<->O22}): %s\n",
		strings.Join(rep.Outliers, ", "))
	// A coarse ASCII scatter of the 2-D PCA projection.
	b.WriteString("\nPCA projection (first two components):\n")
	b.WriteString(asciiScatter(rep.Projected, rep.Assign, 60, 16))
	return Result{ID: "fig10", Title: "PCA of clustered IEC 104 sessions (Y1)", Text: b.String()}, nil
}

// Fig11ClusterProfiles interprets each cluster by its mean features,
// mirroring the paper's five behaviours.
func (r *Runner) Fig11ClusterProfiles() (Result, error) {
	a, err := r.Analyzer(topology.Y1)
	if err != nil {
		return Result{}, err
	}
	rep, err := a.ClusterSessions(5, core.ClusterSeed)
	if err != nil {
		return Result{}, err
	}
	type agg struct {
		n                   int
		dt, num, pi, ps, pu float64
	}
	aggs := make([]agg, rep.K)
	for i, f := range rep.Features {
		c := rep.Assign[i]
		aggs[c].n++
		aggs[c].dt += f.DeltaT
		aggs[c].num += f.Num
		aggs[c].pi += f.PctI
		aggs[c].ps += f.PctS
		aggs[c].pu += f.PctU
	}
	var t table
	t.row("Cluster", "Sessions", "meanDt[s]", "meanPkts", "%I", "%S", "%U", "Interpretation")
	total := len(rep.Features)
	for c, ag := range aggs {
		if ag.n == 0 {
			continue
		}
		n := float64(ag.n)
		t.row(
			fmt.Sprintf("%d (%s)", c, pct(float64(ag.n)/float64(total))),
			fmt.Sprintf("%d", ag.n),
			fmt.Sprintf("%.2f", ag.dt/n),
			fmt.Sprintf("%.0f", ag.num/n),
			pct(ag.pi/n), pct(ag.ps/n), pct(ag.pu/n),
			interpretCluster(ag.dt/n, ag.pi/n, ag.ps/n, ag.pu/n),
		)
	}
	txt := t.String() + "\nPaper (Fig. 11): (0) extreme inter-arrival outliers, (1) spontaneous-I heavy,\n" +
		"(2) average I reporters, (3) server S-format acks, (4) backup keep-alives.\n"
	return Result{ID: "fig11", Title: "Communication patterns per cluster", Text: txt}, nil
}

func interpretCluster(dt, pi, ps, pu float64) string {
	switch {
	case dt > 60:
		return "long-interval outlier"
	case pu > 0.6:
		return "backup keep-alives"
	case ps > 0.6:
		return "server acknowledgements"
	case pi > 0.9:
		return "I-format reporters"
	default:
		return "mixed/average"
	}
}

// asciiScatter renders projected points with cluster digits.
func asciiScatter(pts [][]float64, assign []int, w, h int) string {
	if len(pts) == 0 {
		return "(no points)\n"
	}
	minX, maxX := pts[0][0], pts[0][0]
	minY, maxY := pts[0][1], pts[0][1]
	for _, p := range pts {
		if p[0] < minX {
			minX = p[0]
		}
		if p[0] > maxX {
			maxX = p[0]
		}
		if p[1] < minY {
			minY = p[1]
		}
		if p[1] > maxY {
			maxY = p[1]
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", w))
	}
	for i, p := range pts {
		x := int((p[0] - minX) / (maxX - minX) * float64(w-1))
		y := int((p[1] - minY) / (maxY - minY) * float64(h-1))
		grid[h-1-y][x] = byte('0' + assign[i]%10)
	}
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

var _ = core.IEC104Port // keep the core import for documentation links
