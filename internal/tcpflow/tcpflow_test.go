package tcpflow

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"uncharted/internal/pcap"
	"uncharted/internal/stats"
)

var (
	hostA = netip.MustParseAddrPort("10.0.0.1:40000")
	hostB = netip.MustParseAddrPort("10.0.0.2:2404")
	t0    = time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
)

// mkPacket builds a decoded packet without going through serialization.
func mkPacket(src, dst netip.AddrPort, at time.Time, flags uint8, seq, ack uint32, payload []byte) pcap.Packet {
	return pcap.Packet{
		Info: pcap.CaptureInfo{Timestamp: at},
		IP: pcap.IPv4{
			Src: src.Addr(), Dst: dst.Addr(), Protocol: pcap.IPProtoTCP,
			Payload: make([]byte, 20+len(payload)),
		},
		TCP: pcap.TCP{
			SrcPort: src.Port(), DstPort: dst.Port(),
			Seq: seq, Ack: ack, Flags: flags, Payload: payload,
		},
	}
}

func TestMakeKeySymmetric(t *testing.T) {
	if MakeKey(hostA, hostB) != MakeKey(hostB, hostA) {
		t.Fatal("key not direction-insensitive")
	}
}

func TestShortLivedFlow(t *testing.T) {
	tr := NewTracker(nil)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagSYN, 100, 0, nil))
	tr.Feed(mkPacket(hostB, hostA, t0.Add(10*time.Millisecond), pcap.FlagSYN|pcap.FlagACK, 500, 101, nil))
	tr.Feed(mkPacket(hostA, hostB, t0.Add(20*time.Millisecond), pcap.FlagACK, 101, 501, nil))
	tr.Feed(mkPacket(hostB, hostA, t0.Add(300*time.Millisecond), pcap.FlagRST, 501, 0, nil))

	flows := tr.Flows()
	if len(flows) != 1 {
		t.Fatalf("%d flows", len(flows))
	}
	f := flows[0]
	if f.Class() != ShortLived {
		t.Fatalf("class %v", f.Class())
	}
	if f.Duration() != 300*time.Millisecond {
		t.Fatalf("duration %v", f.Duration())
	}
	if f.Initiator != hostA {
		t.Fatalf("initiator %v", f.Initiator)
	}
	s := tr.Summarize()
	if s.ShortLived != 1 || s.LongLived != 0 || s.ShortLivedSubSec != 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestLongLivedFlowNoSYN(t *testing.T) {
	// Flow already established before the capture: data only.
	tr := NewTracker(nil)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK|pcap.FlagPSH, 100, 1, []byte{1}))
	tr.Feed(mkPacket(hostB, hostA, t0.Add(time.Second), pcap.FlagACK, 1, 101, nil))
	if got := tr.Flows()[0].Class(); got != LongLived {
		t.Fatalf("class %v", got)
	}
}

func TestLongLivedFlowNoClose(t *testing.T) {
	// SYN seen but the flow outlives the capture.
	tr := NewTracker(nil)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagSYN, 100, 0, nil))
	tr.Feed(mkPacket(hostB, hostA, t0.Add(time.Millisecond), pcap.FlagSYN|pcap.FlagACK, 1, 101, nil))
	if got := tr.Flows()[0].Class(); got != LongLived {
		t.Fatalf("class %v", got)
	}
}

func TestSummaryOverOneSecond(t *testing.T) {
	tr := NewTracker(nil)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagSYN, 1, 0, nil))
	tr.Feed(mkPacket(hostB, hostA, t0.Add(3*time.Second), pcap.FlagFIN|pcap.FlagACK, 2, 2, nil))
	s := tr.Summarize()
	if s.ShortLived != 1 || s.ShortLivedOverSec != 1 || s.ShortLivedSubSec != 0 {
		t.Fatalf("summary %+v", s)
	}
	if s.SubSecProportion() != 0 {
		t.Fatalf("subsec proportion %v", s.SubSecProportion())
	}
}

func TestDirectionStats(t *testing.T) {
	tr := NewTracker(nil)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK|pcap.FlagPSH, 10, 1, []byte{1, 2, 3}))
	tr.Feed(mkPacket(hostB, hostA, t0.Add(time.Millisecond), pcap.FlagACK|pcap.FlagPSH, 1, 13, []byte{9}))
	f := tr.Flows()[0]
	var fromA, fromB DirStats
	if f.Key.A == hostA {
		fromA, fromB = f.AtoB, f.BtoA
	} else {
		fromA, fromB = f.BtoA, f.AtoB
	}
	if fromA.PayloadBytes != 3 || fromB.PayloadBytes != 1 {
		t.Fatalf("payload accounting %+v %+v", fromA, fromB)
	}
	if f.Packets() != 2 {
		t.Fatalf("packets %d", f.Packets())
	}
}

type collectConsumer struct {
	chunks []StreamPayload
}

func (c *collectConsumer) OnPayload(p StreamPayload) { c.chunks = append(c.chunks, p) }

func TestReassemblyInOrder(t *testing.T) {
	cc := &collectConsumer{}
	tr := NewTracker(cc)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK, 100, 1, []byte("hello ")))
	tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Millisecond), pcap.FlagACK, 106, 1, []byte("world")))
	var got []byte
	for _, ch := range cc.chunks {
		got = append(got, ch.Data...)
	}
	if string(got) != "hello world" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	cc := &collectConsumer{}
	tr := NewTracker(cc)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK, 100, 1, []byte("abc")))
	// Segment 3 arrives before segment 2.
	tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Millisecond), pcap.FlagACK, 106, 1, []byte("ghi")))
	tr.Feed(mkPacket(hostA, hostB, t0.Add(2*time.Millisecond), pcap.FlagACK, 103, 1, []byte("def")))
	var got []byte
	for _, ch := range cc.chunks {
		got = append(got, ch.Data...)
	}
	if string(got) != "abcdefghi" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestRetransmissionDetected(t *testing.T) {
	cc := &collectConsumer{}
	tr := NewTracker(cc)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK, 100, 1, []byte("abc")))
	tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Millisecond), pcap.FlagACK, 100, 1, []byte("abc")))
	f := tr.Flows()[0]
	if f.Retransmits() != 1 {
		t.Fatalf("retransmits %d", f.Retransmits())
	}
	// The duplicate chunk must be flagged and carry no new data.
	last := cc.chunks[len(cc.chunks)-1]
	if !last.Retransmit || len(last.Data) != 0 {
		t.Fatalf("retransmit chunk %+v", last)
	}
}

func TestPartialOverlapTrimmed(t *testing.T) {
	cc := &collectConsumer{}
	tr := NewTracker(cc)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK, 100, 1, []byte("abcdef")))
	// Overlaps the tail and adds two bytes.
	tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Millisecond), pcap.FlagACK, 103, 1, []byte("defGH")))
	var got []byte
	for _, ch := range cc.chunks {
		got = append(got, ch.Data...)
	}
	if string(got) != "abcdefGH" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestSequenceWraparound(t *testing.T) {
	cc := &collectConsumer{}
	tr := NewTracker(cc)
	seq := uint32(0xFFFFFFFE)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK, seq, 1, []byte("ab")))
	tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Millisecond), pcap.FlagACK, 0, 1, []byte("cd")))
	var got []byte
	for _, ch := range cc.chunks {
		got = append(got, ch.Data...)
	}
	if string(got) != "abcd" {
		t.Fatalf("reassembled %q across wrap", got)
	}
}

func TestSeparatePortsSeparateFlows(t *testing.T) {
	tr := NewTracker(nil)
	a2 := netip.MustParseAddrPort("10.0.0.1:40001")
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagSYN, 1, 0, nil))
	tr.Feed(mkPacket(a2, hostB, t0, pcap.FlagSYN, 1, 0, nil))
	if len(tr.Flows()) != 2 {
		t.Fatalf("%d flows, want 2", len(tr.Flows()))
	}
}

func TestSessions(t *testing.T) {
	ss := NewSessions()
	a2 := netip.MustParseAddrPort("10.0.0.1:40001")
	for _, pkt := range []pcap.Packet{
		// Two flows, same host pair and direction → one session.
		mkPacket(hostA, hostB, t0, pcap.FlagACK, 1, 1, []byte{1}),
		mkPacket(a2, hostB, t0.Add(2*time.Second), pcap.FlagACK, 1, 1, []byte{2}),
		// Reverse direction → second session.
		mkPacket(hostB, hostA, t0.Add(3*time.Second), pcap.FlagACK, 1, 1, []byte{3}),
	} {
		ss.FeedFlow(nil, 0, &pkt)
	}

	all := ss.All()
	if len(all) != 2 {
		t.Fatalf("%d sessions, want 2", len(all))
	}
	fwd := all[0]
	if fwd.Packets != 2 {
		t.Fatalf("forward packets %d", fwd.Packets)
	}
	if got := fwd.MeanInterArrival(); got != 2.0 {
		t.Fatalf("mean inter-arrival %v", got)
	}
	if all[1].MeanInterArrival() != 0 {
		t.Fatal("single-packet session must have zero inter-arrival")
	}
	sorted := ss.Sorted()
	if len(sorted) != 2 || sorted[0].Key.Src.Compare(sorted[1].Key.Src) > 0 {
		t.Fatal("sorted order broken")
	}
}

// TestMeanInterArrivalMatchesGapList: the running gap sum makes the
// same additions in the same order as summing a list of the gaps does,
// so the mean is bit-identical, however irregular the gaps.
func TestMeanInterArrivalMatchesGapList(t *testing.T) {
	ss := NewSessions()
	at := t0
	var gaps []float64
	for i := 0; i < 5000; i++ {
		next := at.Add(time.Duration(1+(i*7919)%1_000_003) * time.Microsecond)
		if i > 0 {
			gaps = append(gaps, next.Sub(at).Seconds())
		}
		at = next
		pkt := mkPacket(hostA, hostB, at, pcap.FlagACK, uint32(i), 1, []byte{1})
		ss.FeedFlow(nil, 0, &pkt)
	}
	s := ss.All()[0]
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	if want := sum / float64(len(gaps)); len(gaps) != 4999 || s.MeanInterArrival() != want {
		t.Fatalf("mean inter-arrival %v over %d gaps, summing the list gives %v", s.MeanInterArrival(), len(gaps), want)
	}
}

// TestStdInterArrivalMatchesTwoPass: the Welford pair a session keeps
// gives the deviation the two-pass formula gives over a list of the
// gaps — which the session no longer holds — to 1e-9 relative, and
// exactly 0 for constant gaps.
func TestStdInterArrivalMatchesTwoPass(t *testing.T) {
	for _, tc := range []struct {
		name    string
		packets int
		gap     func(i int) time.Duration
	}{
		{"irregular", 5000, func(i int) time.Duration { return time.Duration(1+(i*7919)%1_000_003) * time.Microsecond }},
		{"wide", 3000, func(i int) time.Duration {
			return time.Duration(1+(i*i*31)%977) * time.Duration(1+i%4*1000) * time.Millisecond
		}},
		{"constant", 2000, func(int) time.Duration { return 4 * time.Second }},
		{"single-gap", 2, func(int) time.Duration { return 1500 * time.Millisecond }},
		{"single-packet", 1, func(int) time.Duration { return time.Second }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := NewSessions()
			at := t0
			var gaps []float64
			for i := 0; i < tc.packets; i++ {
				if i > 0 {
					next := at.Add(tc.gap(i))
					gaps = append(gaps, next.Sub(at).Seconds())
					at = next
				}
				pkt := mkPacket(hostA, hostB, at, pcap.FlagACK, uint32(i), 1, []byte{1})
				ss.FeedFlow(nil, 0, &pkt)
			}
			got, want := ss.All()[0].StdInterArrival(), stats.StdDev(gaps)
			if tc.name == "irregular" || tc.name == "wide" {
				if want == 0 || math.Abs(got-want) > 1e-9*want {
					t.Fatalf("std inter-arrival %v, two-pass over %d gaps gives %v", got, len(gaps), want)
				}
			} else if got != 0 || want != 0 {
				t.Fatalf("std inter-arrival %v (two-pass %v), want exactly 0", got, want)
			}
		})
	}
}

func TestReassemblyFeedsIEC104Frames(t *testing.T) {
	// An APDU split across two TCP segments must come out contiguous.
	apdu := []byte{0x68, 0x0E, 0x02, 0x00, 0x02, 0x00,
		13, 1, 3, 0, 1, 0, 100, 0, 0, 0x00, 0x00, 0x80, 0x3F, 0x00}
	cc := &collectConsumer{}
	tr := NewTracker(cc)
	tr.Feed(mkPacket(hostA, hostB, t0, pcap.FlagACK, 500, 1, apdu[:7]))
	tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Millisecond), pcap.FlagACK, 507, 1, apdu[7:]))
	var got []byte
	for _, ch := range cc.chunks {
		got = append(got, ch.Data...)
	}
	if !bytes.Equal(got, apdu) {
		t.Fatalf("reassembled % x", got)
	}
}

func TestIdleEviction(t *testing.T) {
	const n = 10000
	tr := NewTracker(nil)
	tr.SetIdleTimeout(5 * time.Second)

	// 10k one-packet flows, one every 10ms: a 100s capture where almost
	// every flow goes idle long before the end.
	server := netip.MustParseAddrPort("10.0.0.2:2404")
	for i := 0; i < n; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 40000)
		tr.Feed(mkPacket(src, server, t0.Add(time.Duration(i)*10*time.Millisecond), pcap.FlagACK|pcap.FlagPSH, 1, 1, []byte{1}))
	}

	live := len(tr.Flows())
	if live >= n/2 {
		t.Fatalf("eviction did not shrink the table: %d flows live", live)
	}
	if tr.EvictedFlows()+live != n {
		t.Fatalf("evicted %d + live %d != %d", tr.EvictedFlows(), live, n)
	}
	// Eviction must not lose taxonomy: the summary still covers all 10k.
	s := tr.Summarize()
	if s.Total() != n || s.LongLived != n {
		t.Fatalf("summary %+v, want %d long-lived", s, n)
	}

	first, last := tr.Window()
	if !first.Equal(t0) || !last.Equal(t0.Add((n-1)*10*time.Millisecond)) {
		t.Fatalf("window [%v, %v]", first, last)
	}

	// A final explicit sweep well past the capture drains everything.
	tr.EvictIdle(last.Add(time.Minute))
	if len(tr.Flows()) != 0 || tr.EvictedFlows() != n {
		t.Fatalf("after final sweep: %d live, %d evicted", len(tr.Flows()), tr.EvictedFlows())
	}
	if s := tr.Summarize(); s.Total() != n {
		t.Fatalf("summary after drain %+v", s)
	}
}

func TestIdleEvictionKeepsActiveFlow(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetIdleTimeout(5 * time.Second)
	// One long-running flow with steady traffic survives sweeps that
	// evict a quiet neighbour.
	quiet := netip.MustParseAddrPort("10.0.0.9:41000")
	tr.Feed(mkPacket(quiet, hostB, t0, pcap.FlagACK|pcap.FlagPSH, 1, 1, []byte{1}))
	for i := 0; i < 100; i++ {
		tr.Feed(mkPacket(hostA, hostB, t0.Add(time.Duration(i)*time.Second), pcap.FlagACK|pcap.FlagPSH, uint32(1+i), 1, []byte{1}))
	}
	if len(tr.Flows()) != 1 {
		t.Fatalf("%d flows live, want only the active one", len(tr.Flows()))
	}
	if tr.Flows()[0].Key != MakeKey(hostA, hostB) {
		t.Fatal("wrong flow survived")
	}
	if tr.EvictedFlows() != 1 {
		t.Fatalf("evicted %d, want 1", tr.EvictedFlows())
	}
}

// TestTrackReturnsFlowAndDirection: Track hands back what Feed used to
// keep to itself, and the direction indexes AtoB/BtoA, Slot and the
// chunk's Dir consistently, whichever endpoint talks first.
func TestTrackReturnsFlowAndDirection(t *testing.T) {
	v6a := netip.MustParseAddrPort("[2001:db8::1]:40000")
	v6b := netip.MustParseAddrPort("[2001:db8::2]:2404")
	mapped := netip.AddrPortFrom(netip.AddrFrom16(hostA.Addr().As16()), hostA.Port())
	for _, pair := range [][2]netip.AddrPort{{hostA, hostB}, {hostB, hostA}, {v6a, v6b}, {v6b, v6a}, {hostA, v6b}, {v6a, hostB}, {hostA, mapped}} {
		cc := &collectConsumer{}
		tr := NewTracker(cc)
		src, dst := pair[0], pair[1]
		fwd := mkPacket(src, dst, t0, pcap.FlagACK, 1, 1, []byte{1, 2})
		rev := mkPacket(dst, src, t0.Add(time.Second), pcap.FlagACK, 1, 3, []byte{3})
		f, dir := tr.Track(&fwd)
		g, rdir := tr.Track(&rev)
		if f != g || len(tr.Flows()) != 1 {
			t.Fatalf("%v: the two directions are %d flows", pair, len(tr.Flows()))
		}
		if f.Key != MakeKey(src, dst) || dir == rdir {
			t.Fatalf("%v: key %v, directions %d and %d", pair, f.Key, dir, rdir)
		}
		if want := map[bool]int{true: 0, false: 1}[f.Key.A == src]; dir != want {
			t.Fatalf("%v: direction %d, but Key.A is %v", pair, dir, f.Key.A)
		}
		stats := [2]DirStats{f.AtoB, f.BtoA}
		if stats[dir].PayloadBytes != 2 || stats[rdir].PayloadBytes != 1 {
			t.Fatalf("%v: direction stats %+v", pair, stats)
		}
		if len(cc.chunks) != 2 || cc.chunks[0].Dir != dir || cc.chunks[1].Dir != rdir || cc.chunks[0].Flow != f {
			t.Fatalf("%v: chunks %+v", pair, cc.chunks)
		}
	}
}

// TestEvictedFlowDropsSlots: what a consumer parks on a flow dies with
// the flow. Eviction zeroes the record, so nothing it held stays
// reachable through it, and the 4-tuple that wakes up later — in that
// record or another — is exactly what a fresh tracker opens for the same
// packet: empty slots, no parked session, fresh streams and counts.
func TestEvictedFlowDropsSlots(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetIdleTimeout(5 * time.Second)
	ss := NewSessions()
	first := mkPacket(hostA, hostB, t0, pcap.FlagACK|pcap.FlagPSH, 1, 1, []byte{1})
	f, dir := tr.Track(&first)
	sess := ss.FeedFlow(f, dir, &first)
	f.Slot[dir] = "parked"
	// A buffered out-of-order segment gives the stream a pending map.
	ahead := mkPacket(hostA, hostB, t0, pcap.FlagACK|pcap.FlagPSH, 9, 1, []byte{9})
	tr.Track(&ahead)

	if n := tr.EvictIdle(t0.Add(time.Minute)); n != 1 || len(tr.Flows()) != 0 {
		t.Fatalf("evicted %d flows, %d live", n, len(tr.Flows()))
	}
	if !reflect.DeepEqual(*f, Flow{}) {
		t.Fatalf("evicted record still holds state: %+v", *f)
	}
	again := mkPacket(hostA, hostB, t0.Add(2*time.Minute), pcap.FlagACK|pcap.FlagPSH, 2, 1, []byte{2})
	g, gdir := tr.Track(&again)
	fresh, fdir := NewTracker(nil).Track(&again)
	if gdir != dir || fdir != dir || !reflect.DeepEqual(*g, *fresh) {
		t.Fatalf("woken flow (direction %d → %d) %+v, a fresh tracker opens %+v", dir, gdir, *g, *fresh)
	}
	// The session is per host pair, not per flow: it goes on.
	if ss.FeedFlow(g, gdir, &again) != sess || sess.Packets != 2 || g.sess[gdir] != sess {
		t.Fatalf("session not continued: %+v", sess)
	}
}

// TestEvictedFlowsAreReused: under an idle timeout, a churn of short
// connections — SYN, one segment, FIN, a new source port each — opens
// every flow in a record an earlier flow's eviction gave back, so once
// the live set has peaked a flow allocates nothing. A run is two
// chunks' worth of flows, so a tracker that carved every record afresh
// would read 2. (Each short-lived flow's duration still joins the
// evicted summary's list, whose amortized growth rounds away here.)
func TestEvictedFlowsAreReused(t *testing.T) {
	tr := NewTracker(nil)
	tr.SetIdleTimeout(400 * time.Millisecond)
	// The three packets are built once and re-stamped, so a run
	// allocates only what the tracker does.
	conn := [3]pcap.Packet{
		mkPacket(hostA, hostB, t0, pcap.FlagSYN, 0, 0, nil),
		mkPacket(hostA, hostB, t0, pcap.FlagACK|pcap.FlagPSH, 1, 1, []byte{1, 2, 3}),
		mkPacket(hostA, hostB, t0, pcap.FlagACK|pcap.FlagFIN, 4, 1, nil),
	}
	at := t0
	port := 0
	churn := func() {
		for range 2 * flowChunk {
			port++
			for i := range conn {
				conn[i].TCP.SrcPort = uint16(1024 + port%60000)
				conn[i].Info.Timestamp = at.Add(time.Duration(i) * time.Millisecond)
				tr.Track(&conn[i])
			}
			at = at.Add(100 * time.Millisecond)
		}
	}
	for i := 0; i < 100; i++ {
		churn()
	}
	if n := testing.AllocsPerRun(50, churn); n != 0 {
		t.Errorf("%v allocs per %d flows once warm, want 0", n, 2*flowChunk)
	}
	if live, evicted := len(tr.Flows()), tr.EvictedFlows(); live > 8 || live+evicted != port {
		t.Fatalf("%d flows live and %d evicted of %d opened", live, evicted, port)
	}
}
