package core_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// goldenCapture is the capture behind internal/stream's golden
// fixtures — Y1, seed 7, three minutes; mixed adds the C37.118 and
// Modbus traffic — decoded once per variant.
type goldenCapture struct {
	names map[netip.Addr]string
	pkts  []pcap.Packet
	mixed bool
}

var goldenCaptures = map[bool]*goldenCapture{}

func loadGolden(t testing.TB, mixed bool) *goldenCapture {
	t.Helper()
	if g, ok := goldenCaptures[mixed]; ok {
		return g
	}
	cfg := scadasim.DefaultConfig(topology.Y1, 7)
	cfg.Duration = 3 * time.Minute
	cfg.EnableModbus = mixed
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
	rd, err := pcap.NewAutoReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenCapture{names: core.NamesFromTopology(sim.Network()), mixed: mixed}
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
		g.pkts = append(g.pkts, pkt)
	}
	goldenCaptures[mixed] = g
	return g
}

func (g *goldenCapture) analyzer() *core.Analyzer {
	a := core.NewAnalyzer(g.names)
	if g.mixed {
		a.EnableProtocolDetect()
	}
	return a
}

// replay feeds the capture `passes` more times as its own continuation:
// pass k is shifted in time past the end of pass k-1, and each TCP
// direction's sequence numbers are advanced by the bytes that direction
// carried, so the reassembler sees fresh in-order data on the same
// flows rather than retransmissions. Connections, sessions, flows and
// points stay the ones of the first pass; only the history grows.
// Measurement series stay in time order except the ones whose objects
// carry their own CP56 time tag: replayed unshifted, those arrive late
// and are digested by re-folding their window.
func (g *goldenCapture) replay(a *core.Analyzer, first, passes int) {
	type dir struct{ src, dst netip.AddrPort }
	start := map[dir]uint32{}
	span := map[dir]uint32{}
	for _, p := range g.pkts {
		if len(p.TCP.Payload) == 0 {
			continue
		}
		d := dir{netip.AddrPortFrom(p.IP.Src, p.TCP.SrcPort), netip.AddrPortFrom(p.IP.Dst, p.TCP.DstPort)}
		if _, ok := start[d]; !ok {
			start[d] = p.TCP.Seq
		}
		if end := p.TCP.Seq + uint32(len(p.TCP.Payload)) - start[d]; int32(end-span[d]) > 0 {
			span[d] = end
		}
	}
	period := g.pkts[len(g.pkts)-1].Info.Timestamp.Sub(g.pkts[0].Info.Timestamp) + time.Second
	for k := first; k < first+passes; k++ {
		for _, p := range g.pkts {
			d := dir{netip.AddrPortFrom(p.IP.Src, p.TCP.SrcPort), netip.AddrPortFrom(p.IP.Dst, p.TCP.DstPort)}
			p.Info.Timestamp = p.Info.Timestamp.Add(time.Duration(k) * period)
			p.TCP.Seq += uint32(k) * span[d]
			a.FeedPacket(p)
		}
	}
}

func encodePartial(p core.Partial) []byte {
	return drift.NewProfile("t", "t", core.MergePartials([]core.Partial{p}),
		time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)).Encode()
}

// TestPartialDoesNotAliasLiveChains: a Partial taken mid-capture is a
// copy. Feeding the rest of the capture — which keeps bumping the very
// count tables and digests the partial was copied from — leaves its
// drift encoding byte for byte what it was, and the final partial
// differs from it.
func TestPartialDoesNotAliasLiveChains(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		t.Run(fmt.Sprintf("mixed=%v", mixed), func(t *testing.T) {
			g := loadGolden(t, mixed)
			a := g.analyzer()
			half := len(g.pkts) / 2
			for _, p := range g.pkts[:half] {
				a.FeedPacket(p)
			}
			early := a.Partial()
			before := encodePartial(early)
			for _, p := range g.pkts[half:] {
				a.FeedPacket(p)
			}
			if !bytes.Equal(encodePartial(early), before) {
				t.Fatal("an earlier Partial changed when the analyzer was fed more packets")
			}
			if bytes.Equal(encodePartial(a.Partial()), before) {
				t.Fatal("the second half of the capture changed nothing")
			}
		})
	}
}

// partialAllocCeiling bounds Partial() on the golden IEC 104 capture
// (85 connections, 592 series, 170 sessions): three allocations per
// connection's chain copy plus the per-report slices and maps. It was
// 1177 when the chains were rebuilt from their token streams.
const partialAllocCeiling = 700

// TestPartialCostIndependentOfHistory is the snapshot cost tripwire: a
// seal copies per-connection count tables and per-series moments, so
// what Partial() allocates depends on how many connections, sessions
// and series there are — not on how much traffic they have carried.
// The capture is fed twice (the second pass adds the one transition a
// replay introduces per connection, from the capture's last token back
// to its first, so that both states hold the same tables) and then four
// more times; six captures' worth of history must cost exactly what two
// do.
func TestPartialCostIndependentOfHistory(t *testing.T) {
	g := loadGolden(t, false)
	a := g.analyzer()
	type shape struct{ conns, series, edges int }
	measure := func() (allocs float64, tokens int, sh shape) {
		allocs = testing.AllocsPerRun(5, func() { a.Partial() })
		p := a.Partial()
		for _, cc := range p.Chains {
			tokens += cc.Chain.TotalTokens()
			sh.edges += cc.Chain.Edges()
		}
		sh.conns, sh.series = len(p.Chains), len(p.Physical)
		return
	}
	g.replay(a, 0, 2)
	short, shortTokens, shortShape := measure()
	g.replay(a, 2, 4)
	long, longTokens, longShape := measure()
	t.Logf("Partial(): %v allocs over %d tokens, %v allocs over %d tokens (%+v)", short, shortTokens, long, longTokens, longShape)

	if longTokens < 3*shortTokens-shortTokens/10 {
		t.Fatalf("replay added too little history: %d tokens after two passes, %d after six", shortTokens, longTokens)
	}
	if shortShape != longShape {
		t.Fatalf("replay changed the shape: %+v, then %+v", shortShape, longShape)
	}
	if short != long {
		t.Errorf("Partial() allocates %v times after two passes and %v after six: its cost grows with history", short, long)
	}
	if long > partialAllocCeiling {
		t.Errorf("Partial() allocates %v times, ceiling %d", long, partialAllocCeiling)
	}
}

// TestPartialIntoMatchesPartial: a seal written over the last one is a
// fresh seal. On the y1 capture and the auto-detected mixed one, one
// long-lived dst refilled by PartialInto at ten seeded random packet
// counts equals Partial() every time — nil lists, empty lists and
// non-nil maps included — also with idle-flow eviction and under a
// 16-sample cap. A dst first filled by a larger analyzer, refilled by a
// smaller one or by one that saw nothing, shrinks to its lists and
// loses the map keys it never saw.
func TestPartialIntoMatchesPartial(t *testing.T) {
	variants := []struct {
		name  string
		setup func(*core.Analyzer)
	}{
		{"plain", func(*core.Analyzer) {}},
		{"evict", func(a *core.Analyzer) { a.EnableFlowEviction(5 * time.Second) }},
		{"cap16", func(a *core.Analyzer) { a.Physical().SetMaxSamplesPerSeries(16) }},
	}
	check := func(t *testing.T, label string, a *core.Analyzer, dst *core.Partial) {
		t.Helper()
		a.PartialInto(dst)
		if want := a.Partial(); !reflect.DeepEqual(*dst, want) {
			t.Fatalf("%s: PartialInto differs from Partial", label)
		}
	}
	for _, mixed := range []bool{false, true} {
		g := loadGolden(t, mixed)
		for _, v := range variants {
			t.Run(fmt.Sprintf("mixed=%v/%s", mixed, v.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(35))
				cuts := make([]int, 10)
				for i := range cuts {
					cuts[i] = rng.Intn(len(g.pkts) + 1)
				}
				sort.Ints(cuts)
				a := g.analyzer()
				v.setup(a)
				var dst core.Partial
				fed := 0
				for _, cut := range cuts {
					for ; fed < cut; fed++ {
						a.FeedPacket(g.pkts[fed])
					}
					check(t, fmt.Sprintf("after %d packets", cut), a, &dst)
				}
				if v.name == "evict" && dst.FlowsEvicted == 0 {
					t.Fatal("no flow was evicted: the eviction case is not exercised")
				}
			})
		}
	}

	t.Run("shrink", func(t *testing.T) {
		big := loadGolden(t, true).analyzer()
		for _, p := range loadGolden(t, true).pkts {
			big.FeedPacket(p)
		}
		g := loadGolden(t, false)
		small := g.analyzer()
		for _, p := range g.pkts[:len(g.pkts)/10] {
			small.FeedPacket(p)
		}
		large, little := big.Partial(), small.Partial()
		if len(little.Features) >= len(large.Features) || len(little.Physical) >= len(large.Physical) ||
			len(little.Chains) >= len(large.Chains) {
			t.Fatalf("the smaller analyzer is not smaller: %d/%d features, %d/%d series, %d/%d chains",
				len(little.Features), len(large.Features), len(little.Physical), len(large.Physical),
				len(little.Chains), len(large.Chains))
		}
		lost := 0
		for k := range large.TypeCounts {
			if _, ok := little.TypeCounts[k]; !ok {
				lost++
			}
		}
		for k := range large.OtherPorts {
			if _, ok := little.OtherPorts[k]; !ok {
				lost++
			}
		}
		if lost == 0 {
			t.Fatal("the smaller analyzer saw every map key the larger one did")
		}
		var dst core.Partial
		check(t, "larger analyzer", big, &dst)
		check(t, "smaller analyzer", small, &dst)
		check(t, "larger analyzer again", big, &dst)
		check(t, "empty analyzer", g.analyzer(), &dst)
	})
}

// BenchmarkPartial times one seal of an analyzer holding the golden
// IEC 104 capture once and five times over. What still separates the
// two is the sessions' inter-arrival means and the replay's re-folded
// time-tagged series, which walk their history (ROADMAP item 1).
var partialSink core.Partial

func BenchmarkPartial(b *testing.B) {
	g := loadGolden(b, false)
	for _, passes := range []int{1, 5} {
		b.Run(fmt.Sprintf("history=%dx", passes), func(b *testing.B) {
			a := g.analyzer()
			g.replay(a, 0, passes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				partialSink = a.Partial()
			}
		})
	}
}

// TestRankedMatchesComparatorOnGoldenCaptures: Store.Ranked scores each
// series once; the ranking of the golden captures' series is element
// for element the one that scoring inside the sort comparator gave.
func TestRankedMatchesComparatorOnGoldenCaptures(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		g := loadGolden(t, mixed)
		a := g.analyzer()
		g.replay(a, 0, 1)
		st := a.Physical()
		for _, min := range []int{0, 10, 50} {
			var want []*physical.Series
			for _, s := range st.All() {
				if len(s.Samples)+s.Evicted() >= min {
					want = append(want, s)
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				return want[i].NormalizedVariance() > want[j].NormalizedVariance()
			})
			got := st.Ranked(min)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("mixed=%v min=%d: ranked %d series, want %d", mixed, min, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mixed=%v min=%d: rank %d is %v, want %v", mixed, min, i, got[i].Key, want[i].Key)
				}
			}
		}
	}
}
