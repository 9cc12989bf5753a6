package core

import (
	"cmp"
	"slices"
	"strings"
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
	var p Partial
	a.PartialInto(&p)
	return p
}

// PartialInto is Partial written over *dst: the seal a caller that
// snapshots repeatedly makes into one value. It reuses dst's lists and
// maps, so *dst's previous contents — and any copy of the struct that
// shares its lists or maps — are overwritten. The chain tables Chains
// points at, Dialects and Streams are fresh on every call, and a dst
// that is the zero Partial ends up exactly as Partial returns it.
func (a *Analyzer) PartialInto(dst *Partial) {
	a.FlushMetrics()
	first, last := a.tracker.Window()
	p := Partial{
		Packets:      a.Packets,
		IECPackets:   a.IECPackets,
		ParseErrors:  a.ParseErrors,
		SeqAnomalies: a.SeqAnomalies,
		First:        first,
		Last:         last,
		Flows:        a.tracker.SummarizeInto(dst.Flows.ShortLivedDuration),
		FlowsEvicted: a.tracker.EvictedFlows(),
		TotalASDUs:   a.totalASDUs,
		TypeCounts:   a.typeCountsInto(dst.TypeCounts),
		Features:     a.appendSessionFeatures(refill(dst.Features, len(a.sessionAPDUs))),
		OtherPorts:   a.otherPortsInto(dst.OtherPorts),
		Compliance:   slices.Grow(refill(dst.Compliance, len(a.compliance)), len(a.compliance)),
	}
	if dst.Physical == nil {
		p.Physical = a.store.Digests() // never nil
	} else {
		p.Physical = a.store.AppendDigests(dst.Physical[:0])
	}
	// The store's digests are one per series, so sorting the list by key
	// orders it as MergeDigests would: a lone Partial and a merged one
	// order Physical identically.
	physical.SortDigests(p.Physical)
	for _, sc := range a.compliance {
		p.Compliance = append(p.Compliance, *sc)
	}
	slices.SortFunc(p.Compliance, compareNames)
	p.Chains = a.appendConnChains(refill(dst.Chains, len(a.tokens)))
	p.Dialects = a.Dialects()
	p.Streams = a.StreamCompliance()
	*dst = p
}

// refill empties a list for a seal that builds it from n candidate
// rows, keeping its array; with none it is nil, the shape a fresh
// seal's slices.Grow(nil, 0) leaves.
func refill[S ~[]E, E any](s S, n int) S {
	if n == 0 {
		return nil
	}
	return s[:0]
}

// MergePartials combines shard snapshots into one. Counters add;
// compliance verdicts merge per endpoint; chains, features and
// physical digests concatenate (deduplicating by key, which only
// triggers when two inputs saw the same connection — two probes on one
// link) and are sorted so the merged result is deterministic regardless
// of shard count or scheduling. The inputs are never modified.
//
// Every list is sized from the inputs up front and holds values: rows
// of one key are folded after a stable sort, in input order — the order
// a map of first rows merged them in — so a merge allocates the lists
// it returns rather than a box per row.
func MergePartials(parts []Partial) Partial {
	var nCompliance, nChains, nFeatures, nDurations int
	for i := range parts {
		p := &parts[i]
		nCompliance += len(p.Compliance)
		nChains += len(p.Chains)
		nFeatures += len(p.Features)
		nDurations += len(p.Flows.ShortLivedDuration)
	}
	out := Partial{
		TypeCounts: make(map[iec104.TypeID]int),
		OtherPorts: make(map[uint16]int),
		Flows:      tcpflow.Summary{ShortLivedDuration: make([]time.Duration, 0, nDurations)},
		Compliance: slices.Grow([]StationCompliance(nil), nCompliance),
		Chains:     slices.Grow([]ConnChain(nil), nChains),
		Features:   slices.Grow([]SessionFeature(nil), nFeatures),
	}
	physLists := make([][]physical.Digest, 0, len(parts))
	dialects := make(map[protocol.ID]*DialectStat)
	type streamKey struct {
		proto protocol.ID
		conn  string
		unit  string
	}
	streams := make(map[streamKey]*protocol.StreamCompliance)

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
		out.Flows.Add(p.Flows)
		for t, c := range p.TypeCounts {
			out.TypeCounts[t] += c
		}
		for port, n := range p.OtherPorts {
			out.OtherPorts[port] += n
		}
		out.Compliance = append(out.Compliance, p.Compliance...)
		out.Chains = append(out.Chains, p.Chains...)
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

	out.Compliance = foldCompliance(out.Compliance)
	out.Chains = foldChains(out.Chains)
	// Unstable, as it always was: a tie (two probes' rows for one
	// session) lands where pdqsort puts it, which slices.SortFunc and
	// sort.Slice agree on.
	slices.SortFunc(out.Features, func(a, b SessionFeature) int {
		if c := strings.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return strings.Compare(a.Dst, b.Dst)
	})
	for _, ds := range dialects {
		out.Dialects = append(out.Dialects, *ds)
	}
	slices.SortFunc(out.Dialects, func(a, b DialectStat) int { return cmp.Compare(a.Proto, b.Proto) })
	for _, sc := range streams {
		out.Streams = append(out.Streams, *sc)
	}
	slices.SortFunc(out.Streams, compareStreams)
	out.Physical = physical.MergeDigests(physLists...)
	return out
}

// compareNames orders compliance rows by station name, then address.
func compareNames(a, b StationCompliance) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return a.Addr.Compare(b.Addr)
}

// foldCompliance merges the rows of each endpoint into its first, in
// input order, and orders the result by name. rows is the merge's own
// list; the result is a prefix of it.
func foldCompliance(rows []StationCompliance) []StationCompliance {
	slices.SortStableFunc(rows, func(a, b StationCompliance) int { return a.Addr.Compare(b.Addr) })
	n := 0
	for i := range rows {
		if n > 0 && rows[n-1].Addr == rows[i].Addr {
			mergeCompliance(&rows[n-1], rows[i])
			continue
		}
		rows[n] = rows[i]
		n++
	}
	clear(rows[n:])
	rows = rows[:n]
	slices.SortFunc(rows, compareNames)
	return rows
}

// foldChains merges the chains of each connection into its first, in
// input order, and leaves the result ordered by connection. chains is
// the merge's own list, but the chains it points at belong to the
// inputs: a connection seen twice is merged into a copy of its first
// chain.
func foldChains(chains []ConnChain) []ConnChain {
	slices.SortStableFunc(chains, func(a, b ConnChain) int {
		if c := a.Key.Server.Compare(b.Key.Server); c != 0 {
			return c
		}
		return a.Key.Outstation.Compare(b.Key.Outstation)
	})
	n, owned := 0, false // owned: chains[n-1].Chain is the merge's copy
	for i := range chains {
		cc := chains[i]
		if n == 0 || chains[n-1].Key != cc.Key {
			chains[n], owned = cc, false
			n++
			continue
		}
		cur := &chains[n-1]
		if cur.Proto == 0 {
			cur.Proto = cc.Proto
		}
		if !owned {
			cur.Chain, owned = cur.Chain.Clone(), true
		}
		cur.Chain.Merge(cc.Chain)
	}
	clear(chains[n:])
	return chains[:n]
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
