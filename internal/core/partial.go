package core

import (
	"net/netip"
	"sort"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
	"uncharted/internal/tcpflow"
)

// Partial is one analyzer's mergeable snapshot: every §6 aggregate in
// a form that (a) no longer aliases the live analyzer's mutable state
// and (b) combines exactly across analysis shards. The streaming
// engine partitions traffic so each flow, logical connection and
// directional session is owned by one shard; merging partials then
// reproduces the single-analyzer result.
type Partial struct {
	Packets      int
	IECPackets   int
	ParseErrors  int
	SeqAnomalies int
	// First / Last bound every packet seen (the capture window).
	First, Last time.Time

	Flows        tcpflow.Summary
	FlowsEvicted int
	Compliance   []StationCompliance
	TypeCounts   map[iec104.TypeID]int
	TotalASDUs   int
	// Chains carries a copy of each logical connection's Markov chain;
	// chains never alias analyzer state.
	Chains []ConnChain
	// Features is one clustering row per directional session.
	Features []SessionFeature
	// Physical summarises every extracted series as a moment sketch.
	Physical []physical.Digest
	// OtherPorts tallies non-IEC-104 payload bytes by well-known port.
	OtherPorts map[uint16]int
	// Dialects summarises generic-registry traffic per dialect; empty
	// unless EnableProtocols saw frames (multi-protocol analyses only).
	Dialects []DialectStat
	// Streams carries per-stream dialect-compliance verdicts (e.g.
	// C37.118 data-rate conformance).
	Streams []protocol.StreamCompliance
}

// Partial snapshots the analyzer. The result shares nothing mutable
// with the analyzer, so the caller may keep it while analysis
// continues. It also publishes the analyzer's metric tallies, so the
// registry's counters cover at least what the snapshot covers.
func (a *Analyzer) Partial() Partial {
	a.FlushMetrics()
	first, last := a.tracker.Window()
	p := Partial{
		Packets:      a.Packets,
		IECPackets:   a.IECPackets,
		ParseErrors:  a.ParseErrors,
		SeqAnomalies: a.SeqAnomalies,
		First:        first,
		Last:         last,
		Flows:        a.tracker.Summarize(),
		FlowsEvicted: a.tracker.EvictedFlows(),
		TotalASDUs:   a.totalASDUs,
		TypeCounts:   a.typeCountMap(),
		Features:     a.SessionFeatures(),
		// MergeDigests on a single list just sorts by series key, so a
		// lone Partial and a merged one order Physical identically.
		Physical:   physical.MergeDigests(a.store.Digests()),
		OtherPorts: a.OtherProtocols(),
	}
	for _, sc := range a.compliance {
		p.Compliance = append(p.Compliance, *sc)
	}
	sort.Slice(p.Compliance, func(i, j int) bool {
		return p.Compliance[i].Name < p.Compliance[j].Name
	})
	p.Chains = a.connChains()
	p.Dialects = a.Dialects()
	p.Streams = a.StreamCompliance()
	return p
}

// MergePartials combines shard snapshots into one. Counters add;
// compliance verdicts merge per endpoint; chains, features and
// physical digests concatenate (deduplicating by key, which only
// triggers when two inputs saw the same connection — two probes on one
// link) and are sorted so the merged result is deterministic regardless
// of shard count or scheduling. The inputs are never modified.
func MergePartials(parts []Partial) Partial {
	var out Partial
	out.TypeCounts = make(map[iec104.TypeID]int)
	out.OtherPorts = make(map[uint16]int)
	compliance := make(map[netip.Addr]*StationCompliance)
	chains := make(map[ConnKey]*ConnChain)
	// ownChain marks the connections whose chain MergePartials has
	// already detached from its inputs; nil until the first collision,
	// so disjoint inputs (every engine shard merge) pay nothing.
	var ownChain map[ConnKey]bool
	dialects := make(map[protocol.ID]*DialectStat)
	type streamKey struct {
		proto protocol.ID
		conn  string
		unit  string
	}
	streams := make(map[streamKey]*protocol.StreamCompliance)
	var physLists [][]physical.Digest

	for _, p := range parts {
		out.Packets += p.Packets
		out.IECPackets += p.IECPackets
		out.ParseErrors += p.ParseErrors
		out.SeqAnomalies += p.SeqAnomalies
		out.TotalASDUs += p.TotalASDUs
		out.FlowsEvicted += p.FlowsEvicted
		if !p.First.IsZero() && (out.First.IsZero() || p.First.Before(out.First)) {
			out.First = p.First
		}
		if p.Last.After(out.Last) {
			out.Last = p.Last
		}
		out.Flows = out.Flows.Merge(p.Flows)
		for t, c := range p.TypeCounts {
			out.TypeCounts[t] += c
		}
		for port, n := range p.OtherPorts {
			out.OtherPorts[port] += n
		}
		for i := range p.Compliance {
			sc := p.Compliance[i]
			cur, ok := compliance[sc.Addr]
			if !ok {
				cp := sc
				compliance[sc.Addr] = &cp
				continue
			}
			mergeCompliance(cur, sc)
		}
		for i := range p.Chains {
			cc := p.Chains[i]
			cur, ok := chains[cc.Key]
			if !ok {
				cp := cc
				chains[cc.Key] = &cp
				continue
			}
			if cur.Proto == 0 {
				cur.Proto = cc.Proto
			}
			if !ownChain[cc.Key] {
				// cur.Chain still is the first input's chain: merge
				// into a copy, never into the caller's partial.
				cur.Chain = cur.Chain.Clone()
				if ownChain == nil {
					ownChain = make(map[ConnKey]bool)
				}
				ownChain[cc.Key] = true
			}
			cur.Chain.Merge(cc.Chain)
		}
		for i := range p.Dialects {
			ds := p.Dialects[i]
			cur, ok := dialects[ds.Proto]
			if !ok {
				cp := ds
				cp.TokenCounts = make(map[string]int, len(ds.TokenCounts))
				for t, n := range ds.TokenCounts {
					cp.TokenCounts[t] = n
				}
				dialects[ds.Proto] = &cp
				continue
			}
			cur.Frames += ds.Frames
			cur.ParseErrors += ds.ParseErrors
			cur.Bytes += ds.Bytes
			for t, n := range ds.TokenCounts {
				cur.TokenCounts[t] += n
			}
		}
		for i := range p.Streams {
			sc := p.Streams[i]
			k := streamKey{sc.Proto, sc.Conn, sc.Unit}
			cur, ok := streams[k]
			if !ok {
				cp := sc
				streams[k] = &cp
				continue
			}
			if sc.Frames > cur.Frames {
				cur.ConfiguredRate, cur.ObservedRate = sc.ConfiguredRate, sc.ObservedRate
				cur.Compliant, cur.Detail = sc.Compliant, sc.Detail
			}
			cur.Frames += sc.Frames
			cur.Errors += sc.Errors
		}
		out.Features = append(out.Features, p.Features...)
		physLists = append(physLists, p.Physical)
	}

	for _, sc := range compliance {
		out.Compliance = append(out.Compliance, *sc)
	}
	sort.Slice(out.Compliance, func(i, j int) bool {
		return out.Compliance[i].Name < out.Compliance[j].Name
	})
	for _, cc := range chains {
		out.Chains = append(out.Chains, *cc)
	}
	sort.Slice(out.Chains, func(i, j int) bool {
		a, b := out.Chains[i].Key, out.Chains[j].Key
		if c := a.Server.Compare(b.Server); c != 0 {
			return c < 0
		}
		return a.Outstation.Compare(b.Outstation) < 0
	})
	sort.Slice(out.Features, func(i, j int) bool {
		a, b := out.Features[i], out.Features[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	for _, ds := range dialects {
		out.Dialects = append(out.Dialects, *ds)
	}
	sort.Slice(out.Dialects, func(i, j int) bool {
		return out.Dialects[i].Proto < out.Dialects[j].Proto
	})
	for _, sc := range streams {
		out.Streams = append(out.Streams, *sc)
	}
	sort.Slice(out.Streams, func(i, j int) bool {
		a, b := out.Streams[i], out.Streams[j]
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		if a.Conn != b.Conn {
			return a.Conn < b.Conn
		}
		return a.Unit < b.Unit
	})
	out.Physical = physical.MergeDigests(physLists...)
	return out
}

// mergeCompliance folds one shard's verdict for an endpoint into the
// accumulated one. Frame tallies add; when both shards pinned a
// dialect the verdict of the shard that saw more frames wins (an
// endpoint talking through two shards detects independently on each).
func mergeCompliance(dst *StationCompliance, src StationCompliance) {
	if src.Detected && (!dst.Detected || src.Frames > dst.Frames) {
		dst.Profile = src.Profile
		dst.Detected = true
	}
	dst.Frames += src.Frames
	dst.StrictInvalid += src.StrictInvalid
}

// FlowReport renders the §6.2 report from the snapshot.
func (p *Partial) FlowReport() FlowReport { return FlowReportFromSummary(p.Flows) }

// ComplianceReport renders the §6.1 report from the snapshot.
func (p *Partial) ComplianceReport() ComplianceReport {
	rep := ComplianceReport{Stations: append([]StationCompliance(nil), p.Compliance...)}
	for _, sc := range rep.Stations {
		if sc.NonCompliant() {
			rep.NonCompliant = append(rep.NonCompliant, sc.Name)
		}
	}
	return rep
}

// TypeDistribution renders the Table 7 shares from the snapshot.
func (p *Partial) TypeDistribution() []TypeIDShare {
	return TypeSharesFromCounts(p.TypeCounts, p.TotalASDUs)
}

// MarkovReport classifies the snapshot's per-connection chains.
func (p *Partial) MarkovReport() MarkovReport {
	return MarkovFromChains(p.Chains)
}

// ClusterReport clusters the snapshot's session features.
func (p *Partial) ClusterReport(k int, seed int64) (*ClusterReport, error) {
	return ClusterFeatures(p.Features, k, seed)
}
