package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/protocol"
	"uncharted/internal/tcpflow"
)

// counterTotals sums a registry's counters by "name" and by
// "name{label=value}".
func counterTotals(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] += c.Value
		for i := 0; i+1 < len(c.Labels); i += 2 {
			out[fmt.Sprintf("%s{%s=%s}", c.Name, c.Labels[i], c.Labels[i+1])] += c.Value
		}
	}
	return out
}

// midRunSource calls check once, from the reader's goroutine, after
// half of its records have been handed out — while the shards are
// still consuming.
type midRunSource struct {
	RawSource
	n, at int
	check func()
}

func (s *midRunSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	if s.n++; s.n == s.at {
		s.check()
	}
	return s.RawSource.NextRaw(scratch)
}

// TestCountersConserved (ROADMAP item 7a, first rows): the analyzer and
// tracker counters are tallied per shard and published per batch, and
// nothing may be lost or doubled on the way. After Run, at every shard
// and reader count, the registry agrees with what the engine's own
// result says was analyzed, and with the tracker's per-flow tallies;
// mid-run, a snapshot's packets are already in the registry.
func TestCountersConserved(t *testing.T) {
	sim, tr := simulate(t, 7, 3*time.Minute)
	capture := tracePCAP(t, tr)
	names := core.NamesFromTopology(sim.Network())

	// What the capture holds, counted without the system's tracker.
	var payloadPkts, records int
	rd, err := pcap.NewAutoReader(bytes.NewReader(capture))
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
		records++
		if pkt, err := pcap.DecodePacket(rd.LinkType(), ci, data); err == nil && len(pkt.TCP.Payload) > 0 {
			payloadPkts++
		}
	}
	// Reassembly outcomes do not depend on sharding (a flow has one
	// owner), so the single offline analyzer's registry is the reference
	// for the out-of-order count, which no flow record keeps.
	offReg := obs.NewRegistry()
	off := core.NewAnalyzer(names)
	off.Instrument(offReg, nil)
	if err := off.ReadPCAP(bytes.NewReader(capture)); err != nil {
		t.Fatal(err)
	}
	wantOOO := counterTotals(offReg)[tcpflow.MetricOutOfOrder]

	for _, workers := range []int{1, 4} {
		for _, readers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%dshard%dreader", workers, readers), func(t *testing.T) {
				reg := obs.NewRegistry()
				e := New(Config{Workers: workers, Readers: readers, Names: names, Registry: reg})
				var src Source = NewReaderAtSource(bytes.NewReader(capture), int64(len(capture)))
				midRun := false
				if readers == 1 {
					src = &midRunSource{RawSource: src.(RawSource), at: records / 2, check: func() {
						midRun = true
						p := e.Snapshot()
						got := counterTotals(reg)[core.MetricPackets]
						if p.Packets == 0 || got < int64(p.Packets) {
							t.Errorf("mid-run: snapshot covers %d packets, the registry %d", p.Packets, got)
						}
					}}
				}
				if err := e.Run(context.Background(), src); err != nil {
					t.Fatal(err)
				}
				if readers == 1 && !midRun {
					t.Fatal("mid-run check never ran")
				}
				final, got := e.Final(), counterTotals(reg)

				if got[core.MetricPackets] != int64(final.Packets) ||
					got[core.MetricPackets+"{proto=iec104}"] != int64(final.IECPackets) {
					t.Errorf("packets: registry %d (%d IEC 104), final partial %d (%d)",
						got[core.MetricPackets], got[core.MetricPackets+"{proto=iec104}"], final.Packets, final.IECPackets)
				}
				// Every accepted APDU is one token of its connection's
				// chain and one count of its session's DirCounts.
				var byFormat [3]int64
				for _, cc := range final.Chains {
					for _, tok := range cc.Chain.Tokens() {
						byFormat[tok.Kind] += int64(cc.Chain.Count(tok))
					}
				}
				for kind, label := range map[uint8]string{protocol.KindIEC104I: "i", protocol.KindIEC104S: "s", protocol.KindIEC104U: "u"} {
					if g := got[core.MetricFrames+"{format="+label+"}"]; g != byFormat[kind] || g == 0 {
						t.Errorf("frames{format=%s}: registry %d, chains %d", label, g, byFormat[kind])
					}
				}
				var sessions core.DirCounts
				var retrans int64
				for _, sh := range e.shards {
					dc := sh.an.SessionAPDUs()
					sessions.I, sessions.S, sessions.U = sessions.I+dc.I, sessions.S+dc.S, sessions.U+dc.U
					for _, f := range sh.an.Flows().Flows() {
						retrans += int64(f.Retransmits())
					}
				}
				if int64(sessions.Total()) != got[core.MetricFrames] || int64(sessions.I) != byFormat[protocol.KindIEC104I] {
					t.Errorf("frames: registry %d, session tallies %+v", got[core.MetricFrames], sessions)
				}
				if got[tcpflow.MetricSegments] != int64(payloadPkts) {
					t.Errorf("segments: registry %d, capture has %d payload packets", got[tcpflow.MetricSegments], payloadPkts)
				}
				if got[tcpflow.MetricRetransmits] != retrans || retrans == 0 {
					t.Errorf("retransmits: registry %d, flow records %d", got[tcpflow.MetricRetransmits], retrans)
				}
				if got[tcpflow.MetricOutOfOrder] != wantOOO {
					t.Errorf("out of order: registry %d, single analyzer %d", got[tcpflow.MetricOutOfOrder], wantOOO)
				}
				if got[tcpflow.MetricFlowsOpened] != int64(final.Flows.Total()) {
					t.Errorf("flows opened: registry %d, final partial %d", got[tcpflow.MetricFlowsOpened], final.Flows.Total())
				}
			})
		}
	}
}

// withNonIPv4 returns a classic-pcap capture's first n records with k of
// them, spread evenly, rewritten to carry an ARP EtherType: records the
// shards' link-layer decode must reject.
func withNonIPv4(t *testing.T, capture []byte, n, k int) []byte {
	t.Helper()
	const globalHdr, recordHdr = 24, 16
	out := append([]byte(nil), capture[:globalHdr]...)
	off := globalHdr
	for i := 0; i < n; i++ {
		if off+recordHdr > len(capture) {
			t.Fatalf("capture has fewer than %d records", n)
		}
		incl := int(binary.LittleEndian.Uint32(capture[off+8:]))
		rec := append([]byte(nil), capture[off:off+recordHdr+incl]...)
		if i%(n/k) == 0 && i/(n/k) < k {
			binary.BigEndian.PutUint16(rec[recordHdr+12:], 0x0806)
		}
		out = append(out, rec...)
		off += recordHdr + incl
	}
	return out
}

// TestDecodeErrorsCounted: a record the shard cannot decode is skipped
// and counted — once, under uncharted_analyzer_decode_errors_total, at
// every shard and reader count — so a capture the decoder cannot read
// does not profile empty with every counter at zero.
func TestDecodeErrorsCounted(t *testing.T) {
	sim, tr := simulate(t, 7, 3*time.Minute)
	const records, bad = 4000, 37
	capture := withNonIPv4(t, tracePCAP(t, tr), records, bad)
	names := core.NamesFromTopology(sim.Network())
	for _, workers := range []int{1, 4} {
		for _, readers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%dshard%dreader", workers, readers), func(t *testing.T) {
				reg := obs.NewRegistry()
				e := New(Config{Workers: workers, Readers: readers, Names: names, Registry: reg})
				if err := e.Run(context.Background(), NewReaderAtSource(bytes.NewReader(capture), int64(len(capture)))); err != nil {
					t.Fatal(err)
				}
				got := counterTotals(reg)
				if got[core.MetricDecodeErrors] != bad {
					t.Errorf("decode errors: registry %d, capture has %d undecodable records", got[core.MetricDecodeErrors], bad)
				}
				if p := e.Final().Packets; p != records-bad || got[core.MetricPackets] != int64(p) {
					t.Errorf("packets: final %d, registry %d, want %d", p, got[core.MetricPackets], records-bad)
				}
			})
		}
	}
}

// TestShardForPairMatchesFNV pins the routing hash to the plain
// bytewise FNV-1a over the two 16-byte addresses it has always been —
// goldens pin which shard sees a station first, and the benchmark
// routes its taps with its own copy of the loop.
func TestShardForPairMatchesFNV(t *testing.T) {
	reference := func(a, b netip.Addr) uint64 {
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
		return h
	}
	rng := rand.New(rand.NewSource(20))
	addr := func() netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		switch rng.Intn(3) {
		case 0:
			return netip.AddrFrom4([4]byte(b[:4]))
		case 1:
			return netip.AddrFrom16(b)
		}
		// The IPv4-mapped form of an IPv4 address hashes like it.
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
	}
	e := New(Config{Workers: 7})
	for i := 0; i < 20000; i++ {
		a, b := addr(), addr()
		if i%16 == 0 {
			b = a
		}
		want := reference(a, b)
		if got := pairHash(a, b); got != want || pairHash(b, a) != want {
			t.Fatalf("pairHash(%v, %v) = %#x / %#x, bytewise FNV-1a gives %#x", a, b, got, pairHash(b, a), want)
		}
		if got := e.shardForPair(a, b); got != int(want%7) {
			t.Fatalf("shardForPair(%v, %v) = %d, want %d", a, b, got, want%7)
		}
	}
}

// TestFinishedEngineReleasesBatchPools: an engine that has returned
// from Run stays referenced (a served tenant, a graph pass under
// inspection) and keeps its readers for /statusz — but not their batch
// carriers, which were up to QueueDepth 64 KiB slabs per reader.
func TestFinishedEngineReleasesBatchPools(t *testing.T) {
	sim, tr := simulate(t, 11, 2*time.Minute)
	capture := tracePCAP(t, tr)
	e, part := runSegmented(t, capture, Config{Workers: 2, Readers: 2, Names: core.NamesFromTopology(sim.Network())})
	if part.Packets == 0 {
		t.Fatal("no packets analyzed")
	}
	readers := *e.readers.Load()
	if len(readers) != 2 {
		t.Fatalf("%d readers, want 2", len(readers))
	}
	for _, rd := range readers {
		held := len(rd.pool.free)
		for _, b := range rd.pending {
			if b != nil {
				held++
			}
		}
		if held != 0 {
			t.Errorf("reader %d still holds %d batches after Run", rd.r, held)
		}
	}
	st := e.Status()
	if len(st.Readers) != 2 || !st.Readers[0].Done || st.Readers[0].BytesRead == 0 || st.Readers[1].BytesRead == 0 {
		t.Fatalf("statusz lost the readers' counters: %+v", st.Readers)
	}
}
