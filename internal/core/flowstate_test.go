package core

import (
	"maps"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/modbus"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/protocol"
	"uncharted/internal/tcpflow"
)

// wire feeds payload chunks to an analyzer as the in-order segments of
// real TCP flows, keeping each direction's sequence number, so tests of
// per-flow state go through FeedPacket like a capture does.
type wire struct {
	a   *Analyzer
	at  time.Time
	seq map[[2]netip.AddrPort]uint32
}

func newWire(a *Analyzer, at time.Time) *wire {
	return &wire{a: a, at: at, seq: make(map[[2]netip.AddrPort]uint32)}
}

func (w *wire) send(src, dst netip.AddrPort, data []byte) {
	k := [2]netip.AddrPort{src, dst}
	w.a.FeedPacket(pcap.Packet{
		Info: pcap.CaptureInfo{Timestamp: w.at},
		IP:   pcap.IPv4{Src: src.Addr(), Dst: dst.Addr(), Protocol: pcap.IPProtoTCP, Payload: data},
		TCP: pcap.TCP{
			SrcPort: src.Port(), DstPort: dst.Port(),
			Seq: w.seq[k], Flags: pcap.FlagACK | pcap.FlagPSH, Payload: data,
		},
	})
	w.seq[k] += uint32(len(data))
}

// slot returns what the analyzer parked on the flow direction src→dst.
func (w *wire) slot(t *testing.T, src, dst netip.AddrPort) (*tcpflow.Flow, any) {
	t.Helper()
	for _, f := range w.a.Flows().Flows() {
		if f.Key == tcpflow.MakeKey(src, dst) {
			if f.Key.A == src {
				return f, f.Slot[0]
			}
			return f, f.Slot[1]
		}
	}
	t.Fatalf("no live flow %v → %v", src, dst)
	return nil, nil
}

func measurementFrame(t *testing.T, ns uint16, ioa uint32, v float64) []byte {
	t.Helper()
	asdu := iec104.NewMeasurement(iec104.MMeNc, 1, ioa, iec104.Value{Kind: iec104.KindFloat, Float: v}, iec104.CauseSpontaneous)
	b, err := iec104.NewI(ns, 0, asdu).Marshal(iec104.Standard)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEvictedFlowStartsFresh: per-direction decode state lives on the
// flow record, so eviction takes it along. A flow evicted in the middle
// of a frame and woken later re-enters with an empty framing buffer and
// an unarmed N(S) check (IEC 104), or a fresh claim and an empty decode
// buffer (generic dialects, including the "nobody claims this" mark) —
// and nothing in the analyzer still points at the old state. The
// tracker reuses evicted records, so the woken flows are checked by
// content: each is what an analyzer that never saw the 4-tuple builds
// from the same packets.
func TestEvictedFlowStartsFresh(t *testing.T) {
	const idle = 10 * time.Second
	a := NewAnalyzer(nil)
	a.EnableProtocolDetect()
	a.EnableFlowEviction(idle)
	w := newWire(a, time.Unix(1560000000, 0).UTC())

	rtu := netip.MustParseAddrPort("10.0.1.1:2404")
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	plc := netip.MustParseAddrPort("10.0.8.1:502")
	master := netip.MustParseAddrPort("10.0.0.6:40002")
	odd := netip.MustParseAddrPort("10.0.8.2:9999")
	keepalive := func() {
		// A bare ACK elsewhere moves the capture clock and runs the sweeps.
		w.send(netip.MustParseAddrPort("10.0.7.7:40009"), netip.MustParseAddrPort("10.0.0.5:2404"), nil)
	}

	// IEC 104: one whole I-frame arms the N(S) check at 8, then half a
	// frame is left in the framing buffer.
	w.send(rtu, scada, measurementFrame(t, 7, 100, 50))
	w.send(rtu, scada, measurementFrame(t, 8, 100, 51)[:9])
	// Modbus: half a request is left in the decode buffer.
	req := modbus.ReadRequest(9, 1, modbus.FuncReadHolding, 100, 6)
	w.send(master, plc, req[:5])
	// Port 9999 talks garbage: inspected, claimed by nobody, remembered.
	w.send(master, odd, []byte("not a protocol"))

	oldFlow, oldIEC := w.slot(t, rtu, scada)
	st, ok := oldIEC.(*dirState)
	if !ok || st == nil || len(st.buf) != 9 || !st.seqSeen || st.nextSeq != 8 {
		t.Fatalf("before eviction: IEC 104 slot %#v", oldIEC)
	}
	_, oldModbus := w.slot(t, master, plc)
	if pd, ok := oldModbus.(*dirState); !ok || pd == nil || len(pd.buf) != 5 {
		t.Fatalf("before eviction: Modbus slot %#v", oldModbus)
	}
	if _, s := w.slot(t, master, odd); s != any((*dirState)(nil)) {
		t.Fatalf("before eviction: unclaimed flow's slot %#v, want the nil *dirState mark", s)
	}
	errsBefore := a.ParseErrors

	for i := 0; i < 8; i++ {
		w.at = w.at.Add(idle / 2)
		keepalive()
	}
	if a.Flows().EvictedFlows() < 3 {
		t.Fatalf("only %d flows evicted", a.Flows().EvictedFlows())
	}
	for _, f := range a.Flows().Flows() {
		if f == oldFlow {
			t.Fatal("evicted flow still tracked")
		}
	}
	if !reflect.DeepEqual(*oldFlow, tcpflow.Flow{}) {
		t.Fatalf("evicted flow record still holds state: %+v", *oldFlow)
	}

	// Wake all three, and send the same packets to an analyzer that never
	// saw these flows. A stale framing buffer would glue nine old bytes in
	// front of the new frame; an armed N(S) check would flag 100 ≠ 8.
	ref := NewAnalyzer(nil)
	ref.EnableProtocolDetect()
	rw := newWire(ref, w.at)
	rw.seq = maps.Clone(w.seq)
	for _, to := range []*wire{w, rw} {
		to.send(rtu, scada, measurementFrame(t, 100, 100, 52))
		to.send(master, plc, req)
		to.send(master, odd, req) // this time it is Modbus, and detection sees it
	}

	if a.SeqAnomalies != 0 || a.ParseErrors != errsBefore {
		t.Fatalf("woken flows: %d sequence anomalies, %d new parse errors", a.SeqAnomalies, a.ParseErrors-errsBefore)
	}
	for _, dst := range []netip.AddrPort{scada, plc, odd} {
		src := master
		if dst == scada {
			src = rtu
		}
		woken, ws := w.slot(t, src, dst)
		fresh, fs := rw.slot(t, src, dst)
		if got, want := flowFields(woken), flowFields(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("woken flow to %v: %+v, fresh %+v", dst, got, want)
		}
		wd, ok := ws.(*dirState)
		fd, _ := fs.(*dirState)
		if !ok || wd == nil || fd == nil || !reflect.DeepEqual(ownFields(wd), ownFields(fd)) {
			t.Fatalf("woken flow to %v: state %+v, fresh %+v", dst, ws, fs)
		}
	}
	if _, s := w.slot(t, rtu, scada); s.(*dirState).nextSeq != 101 {
		t.Fatalf("woken IEC 104 state %+v, want N(S) 101 next", s)
	}
	if _, s := w.slot(t, master, odd); s.(*dirState).proto != protocol.Modbus {
		t.Fatalf("woken flow to %v claimed by %v, want Modbus", odd, s.(*dirState).proto)
	}
	if dc := a.sessionAPDUs[tcpflow.SessionKey{Src: rtu.Addr(), Dst: scada.Addr()}]; dc == nil || dc.I != 2 {
		t.Fatalf("IEC 104 session tally %+v, want 2 I-frames", dc)
	}
	var frames int
	for _, ds := range a.Dialects() {
		if ds.Proto == protocol.Modbus {
			frames = ds.Frames
		}
	}
	if frames != 2 {
		t.Fatalf("%d Modbus frames decoded after the wake-up, want 2", frames)
	}
}

// flowFields is a flow's exported record — key, times, flags,
// initiator, direction counts — without its slots, which hold the
// consumer's own state.
func flowFields(f *tcpflow.Flow) tcpflow.Flow {
	return tcpflow.Flow{
		Key: f.Key, First: f.First, Last: f.Last,
		SawSYN: f.SawSYN, SawFIN: f.SawFIN, SawRST: f.SawRST,
		Initiator: f.Initiator, AtoB: f.AtoB, BtoA: f.BtoA,
	}
}

// ownFields is a direction's state without its pointers into the
// analyzer's shared records (the dialect session, tallies, chain,
// compliance record), which outlive the flow by design.
func ownFields(d *dirState) dirState {
	return dirState{
		proto: d.proto, fromOutstation: d.fromOutstation, buf: d.buf, ck: d.ck,
		nextSeq: d.nextSeq, seqSeen: d.seqSeen, typeBooked: d.typeBooked,
	}
}

// pollingExchange returns a function feeding one polling exchange to
// a — four measurement I-frames from an outstation, one S-frame back, a
// second apart from the next — packet by packet, with a registry
// attached as every front end runs it. A whole cycle of the 15-bit send
// sequence is built here, so calling it allocates only what the
// analyzer does, however often.
func pollingExchange(t *testing.T, a *Analyzer) func() {
	t.Helper()
	a.Instrument(obs.NewRegistry(), nil)
	w := newWire(a, time.Unix(1560000000, 0).UTC())
	rtu := netip.MustParseAddrPort("10.0.1.1:2404")
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	ack, err := iec104.NewS(0).Marshal(iec104.Standard)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0x8000)
	for i := range frames {
		frames[i] = measurementFrame(t, uint16(i), 100+uint32(i%4), 49.9)
	}
	ns := 0
	return func() {
		for i := 0; i < 4; i++ {
			w.send(rtu, scada, frames[ns])
			ns = (ns + 1) & 0x7FFF
		}
		w.send(scada, rtu, ack)
		w.at = w.at.Add(time.Second)
		a.FlushMetrics()
	}
}

// TestIEC104FeedAllocs is TestDialectFeedAllocCeiling's sibling for IEC
// 104: once the flows, sessions, series and the outstation's dialect
// are known, a polling exchange allocates nothing.
// (The rare new sample chunk averages out below one allocation per run;
// TestSteadyStateFeedGrowsNothing counts the bytes.)
func TestIEC104FeedAllocs(t *testing.T) {
	a := NewAnalyzer(nil)
	const warm, runs = 64, 400
	exchange := pollingExchange(t, a)
	for i := 0; i < warm; i++ {
		exchange()
	}
	if n := testing.AllocsPerRun(runs, exchange); n != 0 {
		t.Errorf("%v allocs per 5-packet exchange, want 0", n)
	}
	if a.ParseErrors != 0 || a.SeqAnomalies != 0 || len(a.Physical().All()) != 4 {
		t.Fatalf("%d parse errors, %d sequence anomalies, %d series", a.ParseErrors, a.SeqAnomalies, len(a.Physical().All()))
	}
}

// TestSteadyStateFeedGrowsNothing: nothing the analyzer keeps grows per
// packet. A connection is a chain and a vocabulary, a session is
// running moments, so over 20 000 packets of a warmed polling exchange
// the only bytes allocated are sample storage: none at all under a
// sample cap (0 is what an idle machine reads), and without one the
// store's slabs — each as large as everything carved before it, so
// never more than the 16 bytes of every sample stored so far (plus
// chunk bookkeeping).
func TestSteadyStateFeedGrowsNothing(t *testing.T) {
	const warm, runs = 2000, 4000
	// TotalAlloc is process-wide, and under load the runtime allocates
	// beside the test now and then: a sudog (48 or 96 bytes), a thread
	// (an m, its g0 and gsignal: 5 504). One byte per packet is 20 000.
	const runtimeNoise = 8 << 10
	for _, tc := range []struct {
		name           string
		cap            int
		bytesPerSample float64 // allowance per sample the store ends up holding
	}{
		{"capped", 512, 0},
		{"uncapped", 0, 1.15 * 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAnalyzer(nil)
			a.Physical().SetMaxSamplesPerSeries(tc.cap)
			exchange := pollingExchange(t, a)
			for i := 0; i < warm; i++ {
				exchange()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				exchange()
			}
			runtime.ReadMemStats(&after)
			grown := after.TotalAlloc - before.TotalAlloc
			stored := 0
			for _, s := range a.Physical().All() {
				stored += s.Len()
			}
			budget := uint64(tc.bytesPerSample*float64(stored)) + runtimeNoise
			t.Logf("%d bytes allocated over %d packets (%.1f B/packet)", grown, 5*runs, float64(grown)/(5*runs))
			if grown > budget {
				t.Errorf("%d bytes allocated over %d packets with %d samples stored, want at most %d", grown, 5*runs, stored, budget)
			}
			if a.ParseErrors != 0 || a.SeqAnomalies != 0 || len(a.Physical().All()) != 4 {
				t.Fatalf("%d parse errors, %d sequence anomalies, %d series", a.ParseErrors, a.SeqAnomalies, len(a.Physical().All()))
			}
		})
	}
}

// TestIOASetCountsDistinct: the bitset-backed set counts what a map
// would, across its low range, its growth steps and the high fallback.
func TestIOASetCountsDistinct(t *testing.T) {
	var s ioaSet
	want := make(map[uint32]bool)
	for _, ioa := range []uint32{0, 1, 63, 64, 1, 7001, 65535, 65536, 1 << 23, 65536, 7001, 100, 0} {
		s.add(ioa)
		want[ioa] = true
		if s.size() != len(want) {
			t.Fatalf("after adding %d: size %d, want %d", ioa, s.size(), len(want))
		}
	}
	if (*ioaSet)(nil).size() != 0 {
		t.Fatal("nil set is not empty")
	}
}

// TestFlowOpenAllocs: a reconnect to a known station — a fresh flow,
// STARTDT exchanged, one measurement — allocates its two directions'
// states and nothing else. The flow record and its reassembly streams
// come from the tracker's chunks (one allocation per 32 flows), the
// session is the host pair's, and the IEC 104 session is the station
// pair's, taken from the dialect's scope, so no flow allocates a
// session or a tolerant parser of its own.
func TestFlowOpenAllocs(t *testing.T) {
	a := NewAnalyzer(nil)
	w := newWire(a, time.Unix(1560000000, 0).UTC())
	rtu := netip.MustParseAddrPort("10.0.1.1:2404")
	u := func(fn iec104.UFunc) []byte {
		b, err := iec104.NewU(fn).Marshal(iec104.Standard)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	act, con := u(iec104.UStartDTAct), u(iec104.UStartDTCon)
	frame := measurementFrame(t, 0, 100, 50)
	port := uint16(40000)
	open := func() {
		port++
		scada := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.5"), port)
		w.send(scada, rtu, act)
		w.send(rtu, scada, con)
		w.send(rtu, scada, frame)
		w.at = w.at.Add(time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		open()
	}
	if n := testing.AllocsPerRun(2000, open); n > 2 {
		t.Errorf("%v allocs per fresh flow to a known station, want at most 2", n)
	}
	if len(a.protoDirs) != 0 {
		t.Errorf("%d IEC 104 directions kept past their flows, want none", len(a.protoDirs))
	}
	if opened := int(port - 40000); a.ParseErrors != 0 || a.Partial().TotalASDUs != opened {
		t.Fatalf("%d parse errors, %d ASDUs", a.ParseErrors, a.Partial().TotalASDUs)
	}
}

// TestSealOrdersTrackNewKeys: the seal's connection and session orders
// are kept between seals and re-sorted only when one was added. Each
// station here is new after a seal and sorts before some already
// sealed, and every seal still lists the chains by connection and the
// session features in Sessions.Sorted's order. ConnKeys' list is the
// caller's own.
func TestSealOrdersTrackNewKeys(t *testing.T) {
	a := NewAnalyzer(nil)
	w := newWire(a, time.Unix(1560000000, 0).UTC())
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	var p Partial
	for i, rtu := range []string{"10.0.1.9", "10.0.1.5", "10.0.1.7", "10.0.1.1", "10.0.1.3"} {
		w.send(netip.AddrPortFrom(netip.MustParseAddr(rtu), IEC104Port), scada, measurementFrame(t, 0, 100, 50))
		a.PartialInto(&p)
		if len(p.Chains) != i+1 || !slices.IsSortedFunc(p.Chains, func(x, y ConnChain) int {
			return x.Key.Outstation.Compare(y.Key.Outstation)
		}) {
			t.Fatalf("seal %d: chains %+v, want %d sorted by station", i, p.Chains, i+1)
		}
		sessions := a.Sessions().Sorted()
		if len(p.Features) != len(sessions) {
			t.Fatalf("seal %d: %d feature rows for %d sessions", i, len(p.Features), len(sessions))
		}
		for j, s := range sessions {
			if f := p.Features[j]; f.Src != a.Name(s.Key.Src) || f.Dst != a.Name(s.Key.Dst) {
				t.Fatalf("seal %d: feature row %d is %s → %s, want session %v", i, j, f.Src, f.Dst, s.Key)
			}
		}
	}
	keys := a.ConnKeys()
	keys[0] = ConnKey{}
	if a.ConnKeys()[0] == (ConnKey{}) {
		t.Fatal("ConnKeys hands out the analyzer's own list")
	}
}
