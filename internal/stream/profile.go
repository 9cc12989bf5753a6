package stream

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/obs"
	"uncharted/internal/physical"
)

// Profile is the rolling JSON document the engine publishes: every §6
// aggregate the offline profiler reports, derived from a merged
// shard snapshot. It is what -follow mode serves at /profile and what
// cmd/iec104live prints when it drains.
type Profile struct {
	// Seq increments per published snapshot, and a snapshot is
	// published only when its content changed, so an unchanged Seq
	// means unchanged content. The final profile has the highest Seq.
	Seq int `json:"seq"`
	// Workers is the shard count that produced this profile.
	Workers int `json:"workers"`
	// First / Last bound the capture window seen so far.
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`

	Packets      int `json:"packets"`
	IECPackets   int `json:"iec_packets"`
	ParseErrors  int `json:"parse_errors"`
	SeqAnomalies int `json:"seq_anomalies"`
	TotalASDUs   int `json:"total_asdus"`
	FlowsEvicted int `json:"flows_evicted,omitempty"`

	// DroppedBatches / DroppedPackets count load shed under
	// DropNewest; both zero under Block.
	DroppedBatches int64 `json:"dropped_batches,omitempty"`
	DroppedPackets int64 `json:"dropped_packets,omitempty"`

	// Flows is the Table 3 taxonomy.
	Flows FlowProfile `json:"flows"`
	// Compliance is the §6.1 verdict per endpoint.
	Compliance ComplianceProfile `json:"compliance"`
	// Types is Table 7, descending.
	Types []core.TypeIDShare `json:"types,omitempty"`
	// Markov summarises the per-connection chains (Fig. 13/17).
	Markov MarkovProfile `json:"markov"`
	// Clusters summarises session clustering when enabled and enough
	// sessions exist.
	Clusters *ClusterProfile `json:"clusters,omitempty"`
	// Physical ranks measurement series by normalized variance.
	Physical []PhysicalPoint `json:"physical,omitempty"`
	// Dialects tallies the generic decode path per protocol; present
	// only on multi-protocol runs, so single-protocol documents are
	// unchanged.
	Dialects []DialectProfile `json:"dialects,omitempty"`
	// Streams is the per-stream rate compliance (C37.118 PMU data
	// streams against their configured frame rate).
	Streams []StreamProfile `json:"streams,omitempty"`
}

// DialectProfile is one protocol's decode summary.
type DialectProfile struct {
	Proto       string         `json:"proto"`
	Frames      int            `json:"frames"`
	ParseErrors int            `json:"parse_errors,omitempty"`
	Bytes       int            `json:"bytes"`
	Tokens      map[string]int `json:"tokens,omitempty"`
}

// StreamProfile is one measurement stream's rate-compliance verdict.
type StreamProfile struct {
	Proto          string  `json:"proto"`
	Conn           string  `json:"conn"`
	Unit           string  `json:"unit"`
	ConfiguredRate float64 `json:"configured_rate,omitempty"`
	ObservedRate   float64 `json:"observed_rate,omitempty"`
	Frames         int     `json:"frames"`
	Errors         int     `json:"errors,omitempty"`
	Compliant      bool    `json:"compliant"`
	Detail         string  `json:"detail,omitempty"`
}

// FlowProfile is the JSON rendering of the flow taxonomy.
type FlowProfile struct {
	Total            int     `json:"total"`
	ShortLived       int     `json:"short_lived"`
	LongLived        int     `json:"long_lived"`
	ShortLivedSubSec int     `json:"short_lived_subsec"`
	SubSecProportion float64 `json:"subsec_proportion"`
}

// ComplianceProfile is the JSON rendering of the §6.1 report.
type ComplianceProfile struct {
	Stations     int               `json:"stations"`
	NonCompliant []string          `json:"non_compliant,omitempty"`
	Dialects     map[string]string `json:"dialects,omitempty"`
}

// ConnProfile is one connection's chain shape.
type ConnProfile struct {
	Server     string `json:"server"`
	Outstation string `json:"outstation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Tokens     int    `json:"tokens"`
	Cluster    string `json:"cluster"`
}

// MarkovProfile summarises Figs. 13 and 17.
type MarkovProfile struct {
	Connections  []ConnProfile `json:"connections,omitempty"`
	Point11      []string      `json:"point11,omitempty"`
	Square       []string      `json:"square,omitempty"`
	Ellipse      []string      `json:"ellipse,omitempty"`
	Distribution [9]int        `json:"distribution"`
}

// ClusterProfile summarises the §6.3 session clustering.
type ClusterProfile struct {
	K          int      `json:"k"`
	Sizes      []int    `json:"sizes"`
	Silhouette float64  `json:"silhouette"`
	Outliers   []string `json:"outliers,omitempty"`
}

// PhysicalPoint is one ranked measurement series.
type PhysicalPoint struct {
	Station            string  `json:"station"`
	IOA                uint32  `json:"ioa"`
	Count              int     `json:"count"`
	Min                float64 `json:"min"`
	Max                float64 `json:"max"`
	Mean               float64 `json:"mean"`
	NormalizedVariance float64 `json:"normalized_variance"`
	Command            bool    `json:"command,omitempty"`
}

// BuildProfile derives the published document from a merged snapshot.
// k ≤ 0 skips clustering; clustering also degrades gracefully (to
// absent) while fewer than max(k, 2) sessions exist. The clusters are
// core.FitClusters — the fields of ClusterFeatures the document keeps,
// without the model-selection sweep and projection it would discard —
// and every list is sized exactly, so a publish allocates the document
// and little else.
func BuildProfile(p core.Partial, seq, k int, seed int64) *Profile {
	prof := &Profile{
		Seq:          seq,
		First:        p.First,
		Last:         p.Last,
		Packets:      p.Packets,
		IECPackets:   p.IECPackets,
		ParseErrors:  p.ParseErrors,
		SeqAnomalies: p.SeqAnomalies,
		TotalASDUs:   p.TotalASDUs,
		FlowsEvicted: p.FlowsEvicted,
		Types:        p.TypeDistribution(),
	}
	prof.Flows = FlowProfile{
		Total:            p.Flows.Total(),
		ShortLived:       p.Flows.ShortLived,
		LongLived:        p.Flows.LongLived,
		ShortLivedSubSec: p.Flows.ShortLivedSubSec,
		SubSecProportion: p.Flows.SubSecProportion(),
	}

	// The §6.1 report, read straight off the snapshot's sorted rows.
	prof.Compliance = ComplianceProfile{
		Stations: len(p.Compliance),
		Dialects: make(map[string]string, len(p.Compliance)),
	}
	for i := range p.Compliance {
		sc := &p.Compliance[i]
		if sc.NonCompliant() {
			prof.Compliance.NonCompliant = append(prof.Compliance.NonCompliant, sc.Name)
		}
		if sc.Detected {
			prof.Compliance.Dialects[sc.Name] = sc.Profile.String()
		}
	}

	mk := p.MarkovReport()
	prof.Markov = MarkovProfile{
		Connections:  slices.Grow([]ConnProfile(nil), len(mk.Chains)),
		Point11:      mk.Point11,
		Square:       mk.Square,
		Ellipse:      mk.Ellipse,
		Distribution: mk.Distribution,
	}
	for _, cc := range mk.Chains {
		prof.Markov.Connections = append(prof.Markov.Connections, ConnProfile{
			Server:     cc.Server,
			Outstation: cc.Outstation,
			Nodes:      cc.Chain.Nodes(),
			Edges:      cc.Chain.Edges(),
			Tokens:     cc.Chain.TotalTokens(),
			Cluster:    cc.Cluster.String(),
		})
	}

	if k > 0 {
		if cr, err := core.FitClusters(p.Features, k, seed); err == nil {
			prof.Clusters = &ClusterProfile{
				K:          cr.K,
				Sizes:      cr.Sizes,
				Silhouette: cr.Sil,
				Outliers:   cr.Outliers,
			}
		}
	}

	prof.Dialects = slices.Grow(prof.Dialects, len(p.Dialects))
	for _, ds := range p.Dialects {
		prof.Dialects = append(prof.Dialects, DialectProfile{
			Proto:       ds.Proto.String(),
			Frames:      ds.Frames,
			ParseErrors: ds.ParseErrors,
			Bytes:       ds.Bytes,
			Tokens:      ds.TokenCounts,
		})
	}
	prof.Streams = slices.Grow(prof.Streams, len(p.Streams))
	for _, sc := range p.Streams {
		prof.Streams = append(prof.Streams, StreamProfile{
			Proto:          sc.Proto.String(),
			Conn:           sc.Conn,
			Unit:           sc.Unit,
			ConfiguredRate: sc.ConfiguredRate,
			ObservedRate:   sc.ObservedRate,
			Frames:         sc.Frames,
			Errors:         sc.Errors,
			Compliant:      sc.Compliant,
			Detail:         sc.Detail,
		})
	}

	if rank := physical.RankDigests(p.Physical, 2); len(rank) > 0 {
		prof.Physical = make([]PhysicalPoint, len(rank))
		for i, j := range rank {
			d := &p.Physical[j]
			prof.Physical[i] = PhysicalPoint{
				Station:            d.Key.Station,
				IOA:                d.Key.IOA,
				Count:              d.Count,
				Min:                d.Min,
				Max:                d.Max,
				Mean:               d.Mean,
				NormalizedVariance: d.NormalizedVariance(),
				Command:            d.Command,
			}
		}
	}
	return prof
}

// WriteJSON renders the profile, indented for human consumption: its
// AppendJSON document in one Write, nothing on an encoding error.
func (p *Profile) WriteJSON(w io.Writer) error {
	return obs.WriteAppended(w, p.AppendJSON)
}

// WriteText renders the profile as a compact plain-text operator
// summary — the ?format=text rendering of every /profile surface.
func (p *Profile) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "rolling profile seq %d (%d workers)\n", p.Seq, p.Workers)
	fmt.Fprintf(w, "window   %s .. %s\n", p.First.Format(time.RFC3339), p.Last.Format(time.RFC3339))
	fmt.Fprintf(w, "packets  %d (iec %d, asdus %d, parse errors %d, seq anomalies %d)\n",
		p.Packets, p.IECPackets, p.TotalASDUs, p.ParseErrors, p.SeqAnomalies)
	fmt.Fprintf(w, "flows    total %d  short %d  long %d  subsec %.2f\n",
		p.Flows.Total, p.Flows.ShortLived, p.Flows.LongLived, p.Flows.SubSecProportion)
	fmt.Fprintf(w, "stations %d", p.Compliance.Stations)
	if len(p.Compliance.NonCompliant) > 0 {
		fmt.Fprintf(w, " (non-compliant: %s)", strings.Join(p.Compliance.NonCompliant, " "))
	}
	fmt.Fprintln(w)
	if len(p.Types) > 0 {
		fmt.Fprint(w, "types   ")
		for i, t := range p.Types {
			if i >= 5 {
				break
			}
			fmt.Fprintf(w, " I%d %.1f%%", int(t.Type), t.Percent)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "markov   %d connections, type distribution %v\n",
		len(p.Markov.Connections), p.Markov.Distribution)
	if p.Clusters != nil {
		fmt.Fprintf(w, "clusters k=%d sizes %v silhouette %.3f\n",
			p.Clusters.K, p.Clusters.Sizes, p.Clusters.Silhouette)
	}
	if len(p.Dialects) > 0 {
		fmt.Fprint(w, "dialects")
		for _, d := range p.Dialects {
			fmt.Fprintf(w, " %s %d frames (%d errors)", d.Proto, d.Frames, d.ParseErrors)
		}
		fmt.Fprintln(w)
	}
	for _, sc := range p.Streams {
		verdict := "ok"
		if !sc.Compliant {
			verdict = "VIOLATION"
		}
		fmt.Fprintf(w, "stream   %s %s/%s %s: %s\n", sc.Proto, sc.Conn, sc.Unit, verdict, sc.Detail)
	}
	if len(p.Physical) > 0 {
		d := p.Physical[0]
		fmt.Fprintf(w, "physical %d ranked series, top %s/%d nvar %.4g\n",
			len(p.Physical), d.Station, d.IOA, d.NormalizedVariance)
	}
	if p.DroppedBatches > 0 || p.DroppedPackets > 0 {
		fmt.Fprintf(w, "dropped  %d batches / %d packets\n", p.DroppedBatches, p.DroppedPackets)
	}
	return nil
}
