package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"uncharted/internal/cluster"
	"uncharted/internal/stats"
	"uncharted/internal/tcpflow"
)

// ErrTooFewSessions is returned when a capture holds too few sessions
// for feature selection or clustering to be meaningful.
var ErrTooFewSessions = errors.New("core: too few sessions with APDU traffic")

// FeatureName identifies one of the ten candidate session features the
// paper started from (§6.3) before silhouette-based selection reduced
// them to five.
type FeatureName string

// The ten candidate features.
const (
	FeatDirection    FeatureName = "direction"     // from server (1) or outstation (0)
	FeatMeanInterArr FeatureName = "mean-delta-t"  // kept by the paper
	FeatStdInterArr  FeatureName = "std-delta-t"   //
	FeatTotalBytes   FeatureName = "total-bytes"   //
	FeatTotalPackets FeatureName = "num-packets"   // kept by the paper
	FeatMeanPktSize  FeatureName = "mean-pkt-size" //
	FeatIOACount     FeatureName = "ioa-count"     //
	FeatPctI         FeatureName = "pct-i"         // kept by the paper
	FeatPctS         FeatureName = "pct-s"         // kept by the paper
	FeatPctU         FeatureName = "pct-u"         // kept by the paper
)

// AllFeatureNames lists the candidates in a stable order.
var AllFeatureNames = []FeatureName{
	FeatDirection, FeatMeanInterArr, FeatStdInterArr, FeatTotalBytes,
	FeatTotalPackets, FeatMeanPktSize, FeatIOACount, FeatPctI, FeatPctS, FeatPctU,
}

// ExtendedFeature is one session's full ten-dimensional feature row.
type ExtendedFeature struct {
	Src, Dst string
	Values   map[FeatureName]float64
}

// ExtendedSessionFeatures computes all ten candidate features per
// directional session.
func (a *Analyzer) ExtendedSessionFeatures() []ExtendedFeature {
	var out []ExtendedFeature
	for _, s := range a.sessions.Sorted() {
		key := tcpflow.SessionKey{Src: s.Key.Src, Dst: s.Key.Dst}
		dc, ok := a.sessionAPDUs[key]
		if !ok || dc.Total() == 0 {
			continue
		}
		total := float64(dc.Total())
		dir := 0.0
		if _, isServer := a.names[s.Key.Src]; isServer && a.Name(s.Key.Src)[0] == 'C' {
			dir = 1
		}
		meanPkt := 0.0
		if s.Packets > 0 {
			meanPkt = float64(s.Bytes) / float64(s.Packets)
		}
		out = append(out, ExtendedFeature{
			Src: a.Name(s.Key.Src), Dst: a.Name(s.Key.Dst),
			Values: map[FeatureName]float64{
				FeatDirection:    dir,
				FeatMeanInterArr: s.MeanInterArrival(),
				FeatStdInterArr:  s.StdInterArrival(),
				FeatTotalBytes:   float64(s.Bytes),
				FeatTotalPackets: float64(s.Packets),
				FeatMeanPktSize:  meanPkt,
				FeatIOACount:     float64(a.sessionIOAs[key].size()),
				FeatPctI:         float64(dc.I) / total,
				FeatPctS:         float64(dc.S) / total,
				FeatPctU:         float64(dc.U) / total,
			},
		})
	}
	return out
}

// FeatureScore is one row of the selection report.
type FeatureScore struct {
	Name       FeatureName
	Silhouette float64
	Selected   bool
}

// SelectFeatures reproduces the paper's dimensionality reduction: each
// candidate feature is clustered on its own (1-D K-means) and scored
// with the silhouette coefficient; the five best-separating features
// survive. The paper reports that mean inter-arrival time, packet
// count and the three APDU-format percentages won.
func (a *Analyzer) SelectFeatures(seed int64) ([]FeatureScore, error) {
	feats := a.ExtendedSessionFeatures()
	if len(feats) < 6 {
		return nil, ErrTooFewSessions
	}
	var scores []FeatureScore
	for _, name := range AllFeatureNames {
		col := make([][]float64, len(feats))
		raw := make([]float64, len(feats))
		for i, f := range feats {
			raw[i] = f.Values[name]
		}
		std := stats.Standardize(raw)
		for i, v := range std {
			col[i] = []float64{v}
		}
		sil := bestSilhouette1D(col, seed)
		scores = append(scores, FeatureScore{Name: name, Silhouette: sil})
	}
	// Select the top five.
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return scores[order[x]].Silhouette > scores[order[y]].Silhouette
	})
	for rank, idx := range order {
		if rank < 5 {
			scores[idx].Selected = true
		}
	}
	return scores, nil
}

// bestSilhouette1D clusters one standardized feature with k = 2..4 and
// returns the best silhouette (constant features score 0).
func bestSilhouette1D(col [][]float64, seed int64) float64 {
	allEqual := true
	for i := 1; i < len(col); i++ {
		if col[i][0] != col[0][0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return 0
	}
	best := math.Inf(-1)
	for k := 2; k <= 4 && k < len(col); k++ {
		res, err := cluster.KMeans(col, k, rand.New(rand.NewSource(seed+int64(k))))
		if err != nil {
			continue
		}
		sil, err := cluster.Silhouette(col, res.Assign, k)
		if err != nil {
			continue
		}
		if sil > best {
			best = sil
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
