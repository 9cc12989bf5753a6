package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"uncharted/internal/cluster"
	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/protocol"
	"uncharted/internal/stats"
	"uncharted/internal/tcpflow"
)

// FlowReport is Table 3 plus the Fig. 8 histogram.
type FlowReport struct {
	Summary tcpflow.Summary
	// DurationHistogram bins short-lived flow durations in log space.
	DurationHistogram []stats.Bucket
}

// FlowAnalysis computes the §6.2 report.
func (a *Analyzer) FlowAnalysis() FlowReport {
	return FlowReportFromSummary(a.tracker.Summarize())
}

// FlowReportFromSummary builds the §6.2 report from a (possibly
// merged) flow summary.
func FlowReportFromSummary(sum tcpflow.Summary) FlowReport {
	var secs []float64
	for _, d := range sum.ShortLivedDuration {
		secs = append(secs, d.Seconds())
	}
	var hist []stats.Bucket
	if len(secs) > 0 {
		hist, _ = stats.LogHistogram(secs, 12)
	}
	return FlowReport{Summary: sum, DurationHistogram: hist}
}

// ComplianceReport is the §6.1 / Fig. 7 analysis.
type ComplianceReport struct {
	Stations []StationCompliance
	// NonCompliant lists the stations needing a legacy dialect.
	NonCompliant []string
}

// Compliance summarises dialect detection across all endpoints.
func (a *Analyzer) Compliance() ComplianceReport {
	var rep ComplianceReport
	for _, sc := range a.compliance {
		rep.Stations = append(rep.Stations, *sc)
	}
	sort.Slice(rep.Stations, func(i, j int) bool { return rep.Stations[i].Name < rep.Stations[j].Name })
	for _, sc := range rep.Stations {
		if sc.NonCompliant() {
			rep.NonCompliant = append(rep.NonCompliant, sc.Name)
		}
	}
	return rep
}

// SessionFeature is one clustering input row (§6.3): the five features
// the paper kept after silhouette-based selection.
type SessionFeature struct {
	Src, Dst string
	// DeltaT is the mean inter-arrival time in seconds.
	DeltaT float64
	// Num is the packet count of the session.
	Num float64
	// PctI, PctS, PctU are the APDU format fractions.
	PctI, PctS, PctU float64
}

// Vector renders the standardizable feature vector.
func (f SessionFeature) Vector() []float64 {
	return []float64{f.DeltaT, f.Num, f.PctI, f.PctS, f.PctU}
}

// SessionAPDUs returns the APDU format tally summed over every
// directional session: all frames the analyzer accepted, by format.
func (a *Analyzer) SessionAPDUs() DirCounts {
	var sum DirCounts
	for _, dc := range a.sessionAPDUs {
		sum.I, sum.S, sum.U = sum.I+dc.I, sum.S+dc.S, sum.U+dc.U
	}
	return sum
}

// SessionFeatures extracts one row per directional session that
// carried at least one APDU.
func (a *Analyzer) SessionFeatures() []SessionFeature {
	return a.appendSessionFeatures(nil) // nil when no session has a tally
}

// appendSessionFeatures appends SessionFeatures' rows to dst, growing it
// once for every session with an APDU tally.
func (a *Analyzer) appendSessionFeatures(dst []SessionFeature) []SessionFeature {
	out := slices.Grow(dst, len(a.sessionAPDUs))
	for _, s := range a.sortedSessions() {
		key := tcpflow.SessionKey{Src: s.Key.Src, Dst: s.Key.Dst}
		dc, ok := a.sessionAPDUs[key]
		if !ok || dc.Total() == 0 {
			continue
		}
		total := float64(dc.Total())
		out = append(out, SessionFeature{
			Src:    a.Name(s.Key.Src),
			Dst:    a.Name(s.Key.Dst),
			DeltaT: s.MeanInterArrival(),
			Num:    float64(s.Packets),
			PctI:   float64(dc.I) / total,
			PctS:   float64(dc.S) / total,
			PctU:   float64(dc.U) / total,
		})
	}
	return out
}

// ClusterSeed is the K-means++ seed every report, profile and tenant
// clusters with, so Fig. 10/11 and published profiles stay
// deterministic across runs and restarts.
const ClusterSeed = 1202

// ClusterReport is Fig. 10/11: the fitted clusters, their PCA
// projection and per-cluster interpretation.
type ClusterReport struct {
	Features  []SessionFeature
	K         int
	Assign    []int
	Sizes     []int
	SSE       float64
	Sil       float64
	Projected [][]float64 // 2-D PCA coordinates per feature row
	// Elbow is the K-sweep used for model selection.
	Elbow []cluster.ElbowPoint
	// Outliers lists the members of the smallest cluster (cluster 0 in
	// the paper was two sessions: C2→O30 and C4↔O22).
	Outliers []string
}

// ClusterSessions runs the paper's K=5 K-means++ clustering over
// standardized session features, with model selection diagnostics.
func (a *Analyzer) ClusterSessions(k int, seed int64) (*ClusterReport, error) {
	return ClusterFeatures(a.SessionFeatures(), k, seed)
}

// ClusterFeatures clusters a prepared feature set: FitClusters plus the
// model-selection diagnostics — the K = 2..8 sweep and the 2-D PCA
// projection — that the offline report prints.
func ClusterFeatures(feats []SessionFeature, k int, seed int64) (*ClusterReport, error) {
	var w Workspace
	rep, std, err := w.fitClusters(feats, k, seed)
	if err != nil {
		return nil, err
	}
	rep.Elbow, _, err = cluster.Sweep(std, min(8, len(std)), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	pca, err := cluster.PCA(std)
	if err != nil {
		return nil, err
	}
	rep.Projected = pca.Project(std, 2)
	return rep, nil
}

// FitClusters is the clustering the rolling profile publishes: the
// standardized features, K-means++ seeded with seed+1, the silhouette,
// cluster sizes and outliers. Elbow and Projected stay empty. It fails
// exactly when ClusterFeatures does — fewer than max(k, 2) sessions, or
// k < 2 — and every field it fills equals ClusterFeatures' bit for bit:
// the sweep draws from its own generator, so leaving it out moves
// nothing.
func FitClusters(feats []SessionFeature, k int, seed int64) (*ClusterReport, error) {
	var w Workspace
	return w.FitClusters(feats, k, seed)
}

// Workspace is the scratch of the reports one publisher rebuilds every
// tick: the standardized feature rows, the clustering's generator and
// arrays, and the Markov report's chain copies, summaries and classes.
// Its methods compute what the package functions of the same names do,
// bit for bit; what a method returns that points into the workspace is
// named in its comment and is overwritten by the next call. The zero
// value is ready to use; it is not safe for concurrent use.
type Workspace struct {
	flat, col []float64
	rows      [][]float64
	rng       *rand.Rand
	fit       cluster.Workspace
	chains    []ConnChain
	summaries []markov.ConnSummary
	classes   []markov.OutstationClass
}

// FitClusters is the package's FitClusters. The report's Assign belongs
// to the workspace; its Sizes and Outliers are the caller's.
func (w *Workspace) FitClusters(feats []SessionFeature, k int, seed int64) (*ClusterReport, error) {
	rep, _, err := w.fitClusters(feats, k, seed)
	return rep, err
}

// fitClusters is FitClusters, also returning the standardized rows,
// which belong to the workspace.
func (w *Workspace) fitClusters(feats []SessionFeature, k int, seed int64) (*ClusterReport, [][]float64, error) {
	if need := max(k, 2); len(feats) < need {
		return nil, nil, fmt.Errorf("core: %d sessions with APDUs, need at least %d", len(feats), need)
	}
	std := w.standardize(feats)
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(seed + 1))
	} else {
		w.rng.Seed(seed + 1)
	}
	res, err := w.fit.KMeans(std, k, w.rng)
	if err != nil {
		return nil, nil, err
	}
	sil, err := cluster.Silhouette(std, res.Assign, k)
	if err != nil {
		return nil, nil, err
	}
	rep := &ClusterReport{
		Features: feats,
		K:        k,
		Assign:   res.Assign,
		Sizes:    res.Sizes(),
		SSE:      res.SSE,
		Sil:      sil,
	}
	// Outliers: members of the smallest non-empty cluster.
	smallest, smallestSize := -1, 1<<31
	for c, n := range rep.Sizes {
		if n > 0 && n < smallestSize {
			smallest, smallestSize = c, n
		}
	}
	if smallest >= 0 {
		rep.Outliers = make([]string, 0, rep.Sizes[smallest])
	}
	for i, asg := range res.Assign {
		if asg == smallest {
			rep.Outliers = append(rep.Outliers, feats[i].Src+">"+feats[i].Dst)
		}
	}
	return rep, std, nil
}

// standardize returns each feature's Vector with every column scaled
// as stats.Standardize scales it, as rows over one backing array.
func (w *Workspace) standardize(feats []SessionFeature) [][]float64 {
	const dim = 5 // len(SessionFeature.Vector())
	n := len(feats)
	w.flat = slices.Grow(w.flat[:0], n*dim)[:n*dim]
	w.col = slices.Grow(w.col[:0], n)[:n]
	w.rows = slices.Grow(w.rows[:0], n)[:n]
	rows, col := w.rows, w.col
	for i, f := range feats {
		rows[i] = w.flat[i*dim : (i+1)*dim : (i+1)*dim]
		rows[i][0], rows[i][1], rows[i][2], rows[i][3], rows[i][4] = f.DeltaT, f.Num, f.PctI, f.PctS, f.PctU
	}
	for j := 0; j < dim; j++ {
		for i, r := range rows {
			col[i] = r[j]
		}
		m, sd := stats.Mean(col), stats.StdDev(col)
		for i, r := range rows {
			if sd == 0 {
				r[j] = 0
			} else {
				r[j] = (col[i] - m) / sd
			}
		}
	}
	return rows
}

// ConnChain couples a logical connection with its Markov chain.
type ConnChain struct {
	Key        ConnKey
	Server     string
	Outstation string
	// Proto is the dialect whose tokens feed the chain; the zero value
	// is IEC 104, keeping single-protocol snapshots unchanged.
	Proto   protocol.ID
	Chain   *markov.Chain
	Cluster markov.SizeCluster
	// Label is Server + "-" + Outstation, the connection's name in the
	// Fig. 13 lists: built once with the connection, so the lists every
	// tick publishes share it. A chain built without one is labelled
	// where a report needs it.
	Label string
}

// chainLabel is a connection's name in the Fig. 13 lists.
func chainLabel(server, outstation string) string { return server + "-" + outstation }

// label returns the chain's Label, building it when it has none.
func (cc *ConnChain) label() string {
	if cc.Label != "" {
		return cc.Label
	}
	return chainLabel(cc.Server, cc.Outstation)
}

// MarkovReport is Figs. 12-17 and Table 6.
type MarkovReport struct {
	Chains []ConnChain
	// Point11 / Square / Ellipse membership (Fig. 13).
	Point11, Square, Ellipse []string
	// Classes per outstation and the Fig. 17 distribution.
	Classes      []markov.OutstationClass
	Distribution [9]int
}

// connChains copies every logical connection's live chain, sorted by
// connection. The chains are counted as tokens arrive, so this costs
// O(connections), not O(tokens), and the copies share one clone's
// backing arrays.
func (a *Analyzer) connChains() []ConnChain {
	return a.appendConnChains(nil) // nil when there are none
}

// appendConnChains appends connChains' list to dst. The list may be
// reused; the chain copies it points at are fresh on every call.
func (a *Analyzer) appendConnChains(dst []ConnChain) []ConnChain {
	keys := a.sortedConnKeys()
	chains := slices.Grow(dst, len(keys))
	base := len(chains)
	for _, key := range keys {
		tl := a.tokens[key]
		chains = append(chains, ConnChain{
			Key:        key,
			Server:     tl.serverName,
			Outstation: tl.outName,
			Proto:      tl.vocab[0].Proto, // the dialect of its first token
			Chain:      &tl.chain,
			Label:      tl.label,
		})
	}
	added := chains[base:]
	copies := markov.CloneAll(len(added), func(i int) *markov.Chain { return added[i].Chain })
	for i := range added {
		added[i].Chain = &copies[i]
	}
	return chains
}

// MarkovChains classifies every outstation from its connections'
// chains.
func (a *Analyzer) MarkovChains() MarkovReport {
	return MarkovFromChains(a.connChains())
}

// MarkovFromChains classifies a prepared per-connection chain set —
// the entry point shard-merged streaming profiles use. Each chain's
// Cluster field is (re)computed.
func MarkovFromChains(chains []ConnChain) MarkovReport {
	var w Workspace
	return w.MarkovFromChains(chains)
}

// MarkovFromChains is the package's MarkovFromChains. The report's
// Chains and Classes belong to the workspace; its Point11, Square and
// Ellipse lists are the caller's, and hold the chains' labels.
func (w *Workspace) MarkovFromChains(chains []ConnChain) MarkovReport {
	w.chains = append(w.chains[:0], chains...)
	var n [3]int // by markov.SizeCluster
	for i := range w.chains {
		cc := &w.chains[i]
		cc.Cluster = markov.Classify11SquareEllipse(cc.Chain)
		n[cc.Cluster]++
	}
	rep := MarkovReport{
		Chains:  w.chains,
		Point11: slices.Grow([]string(nil), n[markov.ClusterPoint11]),
		Square:  slices.Grow([]string(nil), n[markov.ClusterSquare]),
		Ellipse: slices.Grow([]string(nil), n[markov.ClusterEllipse]),
	}
	w.summaries = w.summaries[:0]
	for i := range w.chains {
		cc := &w.chains[i]
		switch cc.Cluster {
		case markov.ClusterPoint11:
			rep.Point11 = append(rep.Point11, cc.label())
		case markov.ClusterEllipse:
			rep.Ellipse = append(rep.Ellipse, cc.label())
		default:
			rep.Square = append(rep.Square, cc.label())
		}
		w.summaries = append(w.summaries, markov.ConnSummary{
			Server: cc.Server, Outstation: cc.Outstation, Chain: cc.Chain,
		})
	}
	w.classes = markov.AppendClasses(w.classes[:0], w.summaries)
	rep.Classes = w.classes
	rep.Distribution = markov.TypeDistribution(rep.Classes)
	return rep
}

// TypeIDShare is one Table 7 row.
type TypeIDShare struct {
	Type    iec104.TypeID
	Count   int
	Percent float64
}

// TypeDistribution returns the observed ASDU type shares, descending.
func (a *Analyzer) TypeDistribution() []TypeIDShare {
	return TypeSharesFromCounts(a.typeCountMap(), a.totalASDUs)
}

// typeCountMap renders the per-type ASDU tally as the map reports and
// snapshots carry: observed types only.
func (a *Analyzer) typeCountMap() map[iec104.TypeID]int { return a.typeCountsInto(nil) }

// typeCountsInto writes typeCountMap's tally over m, or into a new map
// when m is nil, and returns it.
func (a *Analyzer) typeCountsInto(m map[iec104.TypeID]int) map[iec104.TypeID]int {
	clear(m)
	if m == nil {
		m = make(map[iec104.TypeID]int)
	}
	for t, c := range a.typeCounts {
		if c > 0 {
			m[iec104.TypeID(t)] = c
		}
	}
	return m
}

// TypeSharesFromCounts renders (possibly merged) per-type ASDU counts
// as the Table 7 shares, descending.
func TypeSharesFromCounts(counts map[iec104.TypeID]int, total int) []TypeIDShare {
	out := slices.Grow([]TypeIDShare(nil), len(counts))
	for t, c := range counts {
		out = append(out, TypeIDShare{
			Type: t, Count: c, Percent: 100 * float64(c) / float64(total),
		})
	}
	slices.SortFunc(out, func(a, b TypeIDShare) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Type, b.Type)
	})
	return out
}

// ObservedTypeCount returns how many distinct type IDs appeared (the
// paper observed 13 of the 54).
func (a *Analyzer) ObservedTypeCount() int {
	n := 0
	for _, c := range a.typeCounts {
		if c > 0 {
			n++
		}
	}
	return n
}

// FormatTypeTable renders Table 7 as text.
func FormatTypeTable(shares []TypeIDShare) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %10s %10s\n", "Token", "Acronym", "Count", "Percent")
	for _, s := range shares {
		fmt.Fprintf(&b, "I%-5d %-10s %10d %9.4f%%\n", uint8(s.Type), s.Type.Acronym(), s.Count, s.Percent)
	}
	return b.String()
}
