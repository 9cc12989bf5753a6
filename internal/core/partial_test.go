package core

import (
	"bytes"
	"io"
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// shardedPartials splits a capture across n analyzers by unordered IP
// pair — the streaming engine's partitioning — and snapshots each.
func shardedPartials(t *testing.T, n int) []Partial {
	return shardedPartialsMode(t, 17, n, false)
}

// shardedPartialsMode is shardedPartials over the capture of a given
// simulator seed, with an optional mixed-protocol capture: multi adds a
// Modbus association to the trace and runs every shard analyzer in
// registry auto-detect mode, so the resulting partials carry
// cross-protocol Dialects and Streams state.
func shardedPartialsMode(t *testing.T, seed int64, n int, multi bool) []Partial {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = 6 * time.Minute
	cfg.EnableModbus = multi
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	names := NamesFromTopology(sim.Network())
	analyzers := make([]*Analyzer, n)
	for i := range analyzers {
		analyzers[i] = NewAnalyzer(names)
		if multi {
			analyzers[i].EnableProtocolDetect()
		}
	}
	rd, err := pcap.NewAutoReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		data, ci, err := rd.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := pcap.DecodePacket(rd.LinkType(), ci, data)
		if err != nil {
			continue
		}
		a, b := pkt.IP.Src, pkt.IP.Dst
		if b.Compare(a) < 0 {
			a, b = b, a
		}
		h := uint64(14695981039346656037)
		for _, by := range a.As16() {
			h = (h ^ uint64(by)) * 1099511628211
		}
		for _, by := range b.As16() {
			h = (h ^ uint64(by)) * 1099511628211
		}
		analyzers[h%uint64(n)].FeedPacket(pkt)
	}
	parts := make([]Partial, n)
	for i, a := range analyzers {
		parts[i] = a.Partial()
	}
	return parts
}

// equalMerged asserts two merged partials describe the same network:
// exact equality for everything integer-valued (counters, chains,
// compliance, type counts, flow taxonomy, features) and tolerance
// equality for the floating-point moment digests, whose Welford/Chan
// merges are order-sensitive in the last bits.
func equalMerged(t *testing.T, label string, a, b Partial) {
	t.Helper()
	if a.Packets != b.Packets || a.IECPackets != b.IECPackets ||
		a.ParseErrors != b.ParseErrors || a.SeqAnomalies != b.SeqAnomalies ||
		a.TotalASDUs != b.TotalASDUs || a.FlowsEvicted != b.FlowsEvicted {
		t.Fatalf("%s: counters differ", label)
	}
	if !a.First.Equal(b.First) || !a.Last.Equal(b.Last) {
		t.Fatalf("%s: capture window differs", label)
	}
	if !reflect.DeepEqual(a.TypeCounts, b.TypeCounts) {
		t.Fatalf("%s: type counts differ", label)
	}
	if !reflect.DeepEqual(a.OtherPorts, b.OtherPorts) {
		t.Fatalf("%s: other-port tallies differ", label)
	}
	if !reflect.DeepEqual(a.Compliance, b.Compliance) {
		t.Fatalf("%s: compliance differs", label)
	}
	if !reflect.DeepEqual(a.Features, b.Features) {
		t.Fatalf("%s: session features differ", label)
	}
	if !reflect.DeepEqual(a.Dialects, b.Dialects) {
		t.Fatalf("%s: dialect stats differ:\n%+v\n%+v", label, a.Dialects, b.Dialects)
	}
	if !reflect.DeepEqual(a.Streams, b.Streams) {
		t.Fatalf("%s: stream compliance differs:\n%+v\n%+v", label, a.Streams, b.Streams)
	}

	fa, fb := a.Flows, b.Flows
	if fa.ShortLived != fb.ShortLived || fa.ShortLivedSubSec != fb.ShortLivedSubSec ||
		fa.ShortLivedOverSec != fb.ShortLivedOverSec || fa.LongLived != fb.LongLived {
		t.Fatalf("%s: flow taxonomy differs", label)
	}
	// Durations concatenate in merge order: compare as multisets.
	da := append([]time.Duration(nil), fa.ShortLivedDuration...)
	db := append([]time.Duration(nil), fb.ShortLivedDuration...)
	sort.Slice(da, func(i, j int) bool { return da[i] < da[j] })
	sort.Slice(db, func(i, j int) bool { return db[i] < db[j] })
	if !reflect.DeepEqual(da, db) {
		t.Fatalf("%s: flow duration populations differ", label)
	}

	if len(a.Chains) != len(b.Chains) {
		t.Fatalf("%s: chain counts differ: %d vs %d", label, len(a.Chains), len(b.Chains))
	}
	for i := range a.Chains {
		ca, cb := a.Chains[i], b.Chains[i]
		if ca.Key != cb.Key || ca.Server != cb.Server || ca.Outstation != cb.Outstation {
			t.Fatalf("%s: chain %d identity differs", label, i)
		}
		if !reflect.DeepEqual(ca.Chain.State(), cb.Chain.State()) {
			t.Fatalf("%s: chain %s>%s counts differ", label, ca.Server, ca.Outstation)
		}
	}

	if len(a.Physical) != len(b.Physical) {
		t.Fatalf("%s: digest counts differ", label)
	}
	relClose := func(x, y float64) bool {
		if x == y {
			return true
		}
		scale := math.Max(math.Abs(x), math.Abs(y))
		return math.Abs(x-y) <= 1e-9*math.Max(scale, 1)
	}
	for i := range a.Physical {
		da, db := a.Physical[i], b.Physical[i]
		if da.Key != db.Key || da.Type != db.Type || da.Command != db.Command || da.Count != db.Count {
			t.Fatalf("%s: digest %v identity differs", label, da.Key)
		}
		if da.Min != db.Min || da.Max != db.Max {
			t.Fatalf("%s: digest %v min/max differ", label, da.Key)
		}
		if !relClose(da.Mean, db.Mean) || !relClose(da.M2, db.M2) {
			t.Fatalf("%s: digest %v moments differ beyond tolerance: mean %v vs %v, m2 %v vs %v",
				label, da.Key, da.Mean, db.Mean, da.M2, db.M2)
		}
	}
}

// TestMergePartialsCommutativeAssociative: shard merge order must not
// change the merged profile — the property the drift engine depends on
// (a profile saved from a 4-shard stream must not "drift" against the
// same capture analyzed offline).
func TestMergePartialsCommutativeAssociative(t *testing.T) {
	parts := shardedPartials(t, 3)
	p0, p1, p2 := parts[0], parts[1], parts[2]

	base := MergePartials([]Partial{p0, p1, p2})
	perms := [][]Partial{
		{p0, p2, p1},
		{p1, p0, p2},
		{p1, p2, p0},
		{p2, p0, p1},
		{p2, p1, p0},
	}
	for i, perm := range perms {
		equalMerged(t, "commutativity perm "+string(rune('a'+i)), base, MergePartials(perm))
	}

	left := MergePartials([]Partial{MergePartials([]Partial{p0, p1}), p2})
	right := MergePartials([]Partial{p0, MergePartials([]Partial{p1, p2})})
	equalMerged(t, "associativity left", base, left)
	equalMerged(t, "associativity right", base, right)
	equalMerged(t, "associativity left-vs-right", left, right)

	// Identity: merging one partial with nothing changes nothing
	// observable.
	solo := MergePartials([]Partial{p0})
	equalMerged(t, "identity", solo, MergePartials([]Partial{solo}))
}

// TestMergePartialsOverlapLeavesInputsAlone: two probes reporting the
// same connections (every ConnKey collides) must merge to the same
// result every time, and the merge must not write into either input —
// the fleet view re-merges the stored probe partials on every rebuild.
func TestMergePartialsOverlapLeavesInputsAlone(t *testing.T) {
	pa, pb := shardedPartials(t, 1)[0], shardedPartials(t, 1)[0]
	pristine := shardedPartials(t, 1)[0]
	if len(pa.Chains) == 0 {
		t.Fatal("capture produced no chains")
	}

	first := MergePartials([]Partial{pa, pb})
	second := MergePartials([]Partial{pa, pb})
	equalMerged(t, "repeated overlapping merge", first, second)
	tokens := func(p Partial) (n int) {
		for _, cc := range p.Chains {
			n += cc.Chain.TotalTokens()
		}
		return n
	}
	if got, want := tokens(first), 2*tokens(pristine); got != want {
		t.Fatalf("merged chains hold %d tokens, want %d (both inputs' counts)", got, want)
	}
	for _, in := range []Partial{pa, pb} {
		equalMerged(t, "input after merges", MergePartials([]Partial{pristine}), MergePartials([]Partial{in}))
	}
}

// TestMergePartialsCrossProtocolCommutative re-runs the merge-order
// property over a mixed-protocol capture: the per-dialect stats, token
// maps, proto-tagged chains and C37.118 stream verdicts must also be
// independent of shard merge order.
func TestMergePartialsCrossProtocolCommutative(t *testing.T) {
	parts := shardedPartialsMode(t, 17, 3, true)
	p0, p1, p2 := parts[0], parts[1], parts[2]

	base := MergePartials([]Partial{p0, p1, p2})
	if len(base.Dialects) < 2 {
		t.Fatalf("mixed capture produced too few dialects to test: %+v", base.Dialects)
	}
	if len(base.Streams) == 0 {
		t.Fatal("mixed capture produced no stream compliance verdicts")
	}

	perms := [][]Partial{
		{p0, p2, p1},
		{p1, p0, p2},
		{p1, p2, p0},
		{p2, p0, p1},
		{p2, p1, p0},
	}
	for i, perm := range perms {
		equalMerged(t, "cross-proto commutativity perm "+string(rune('a'+i)), base, MergePartials(perm))
	}
	left := MergePartials([]Partial{MergePartials([]Partial{p0, p1}), p2})
	right := MergePartials([]Partial{p0, MergePartials([]Partial{p1, p2})})
	equalMerged(t, "cross-proto associativity", left, right)
	equalMerged(t, "cross-proto associativity vs flat", base, left)
}

// refMergePartials is MergePartials as it was before it folded sorted
// runs: every compliance row and chain boxed behind a map keyed by
// endpoint or connection, later rows merged into the first, the lists
// grown by appending and ordered with sort.Slice. Kept as the reference
// the fold's row order, tie order and collision handling are pinned to
// (its digests go through MergeDigests, which
// TestMergeDigestsMatchesReference pins to its own reference).
func refMergePartials(parts []Partial) Partial {
	var out Partial
	out.TypeCounts = make(map[iec104.TypeID]int)
	out.OtherPorts = make(map[uint16]int)
	compliance := make(map[netip.Addr]*StationCompliance)
	chains := make(map[ConnKey]*ConnChain)
	var ownChain map[ConnKey]bool
	dialects := make(map[protocol.ID]*DialectStat)
	type streamKey struct {
		proto protocol.ID
		conn  string
		unit  string
	}
	streams := make(map[streamKey]*protocol.StreamCompliance)
	var physLists [][]physical.Digest
	durations := []time.Duration{}
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
		out.Flows.ShortLived += p.Flows.ShortLived
		out.Flows.ShortLivedSubSec += p.Flows.ShortLivedSubSec
		out.Flows.ShortLivedOverSec += p.Flows.ShortLivedOverSec
		out.Flows.LongLived += p.Flows.LongLived
		durations = append(durations, p.Flows.ShortLivedDuration...)
		for t, c := range p.TypeCounts {
			out.TypeCounts[t] += c
		}
		for port, n := range p.OtherPorts {
			out.OtherPorts[port] += n
		}
		for _, sc := range p.Compliance {
			if cur, ok := compliance[sc.Addr]; ok {
				mergeCompliance(cur, sc)
				continue
			}
			cp := sc
			compliance[sc.Addr] = &cp
		}
		for _, cc := range p.Chains {
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
				cur.Chain = cur.Chain.Clone()
				if ownChain == nil {
					ownChain = make(map[ConnKey]bool)
				}
				ownChain[cc.Key] = true
			}
			cur.Chain.Merge(cc.Chain)
		}
		for _, ds := range p.Dialects {
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
		for _, sc := range p.Streams {
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
	out.Flows.ShortLivedDuration = durations
	for _, sc := range compliance {
		out.Compliance = append(out.Compliance, *sc)
	}
	sort.Slice(out.Compliance, func(i, j int) bool { return out.Compliance[i].Name < out.Compliance[j].Name })
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
	sort.Slice(out.Dialects, func(i, j int) bool { return out.Dialects[i].Proto < out.Dialects[j].Proto })
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

// TestMergePartialsMatchesReference: the sorted-run merge equals the
// map-based one exactly — row order, the order of tied feature rows,
// every chain's counts, every digest's moments — on disjoint shards,
// on a mixed-protocol capture, and on two probes of one link that saw
// different traffic: every connection collides (so each merged chain is
// a copy of the first probe's with the second's folded in) and every
// session appears twice with different features, so the sort's ties
// carry distinct rows. The probes' partials are left as they were.
func TestMergePartialsMatchesReference(t *testing.T) {
	probeA, probeB := shardedPartialsMode(t, 17, 1, false)[0], shardedPartialsMode(t, 18, 1, false)[0]
	pristineA := shardedPartialsMode(t, 17, 1, false)[0]
	cases := map[string][]Partial{
		"three shards":       shardedPartials(t, 3),
		"mixed three shards": shardedPartialsMode(t, 17, 3, true),
		"overlapping probes": {probeA, probeB, probeA},
	}
	for name, parts := range cases {
		got, want := MergePartials(parts), refMergePartials(parts)
		if !reflect.DeepEqual(got, want) {
			gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < gv.NumField(); i++ {
				if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
					t.Errorf("%s: Partial.%s differs from the reference merge", name, gv.Type().Field(i).Name)
				}
			}
		}
	}

	merged := MergePartials([]Partial{probeA, probeB})
	if len(merged.Chains) != len(probeA.Chains) || len(merged.Features) != len(probeA.Features)+len(probeB.Features) {
		t.Fatalf("probes do not overlap: %d+%d chains merge to %d", len(probeA.Chains), len(probeB.Chains), len(merged.Chains))
	}
	ties := 0
	for i := 1; i < len(merged.Features); i++ {
		a, b := merged.Features[i-1], merged.Features[i]
		if a.Src == b.Src && a.Dst == b.Dst && a != b {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("the probes' session rows never tie with different features")
	}
	equalMerged(t, "probe A after merges", MergePartials([]Partial{pristineA}), MergePartials([]Partial{probeA}))
}
