package core

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"testing"
	"time"

	// Importing the codecs also registers the non-default dialects the
	// detect-mode tests exercise.
	"uncharted/internal/c37118"
	"uncharted/internal/iec104"
	"uncharted/internal/modbus"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// streamRecorder is a FrameObserver keeping what the analyzer does
// not: every connection's token stream, in arrival order.
type streamRecorder map[ConnKey][]iec104.Token

func (r streamRecorder) ObserveFrame(ev FrameEvent) { r[ev.Conn] = append(r[ev.Conn], ev.Token) }

// mixedAnalyzer runs a Y1 capture with the Modbus association enabled
// through one analyzer, optionally in registry auto-detect mode, with
// obs (when not nil) attached.
func mixedAnalyzer(t *testing.T, detect bool, obs FrameObserver) *Analyzer {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, 11)
	cfg.Duration = 5 * time.Minute
	cfg.EnableModbus = true
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
	a := NewAnalyzer(NamesFromTopology(sim.Network()))
	a.SetFrameObserver(obs)
	if detect {
		a.EnableProtocolDetect()
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
		a.FeedPacket(pkt)
	}
	return a
}

// TestMixedCaptureDialects: a capture carrying IEC 104, C37.118 and
// Modbus traffic analyzed in auto-detect mode must book every dialect —
// frames, token alphabets, Markov chains, physical series and the
// C37.118 rate-compliance verdicts — while the IEC 104 aggregates stay
// intact.
func TestMixedCaptureDialects(t *testing.T) {
	streams := streamRecorder{}
	a := mixedAnalyzer(t, true, streams)
	p := a.Partial()

	if p.IECPackets == 0 || p.TotalASDUs == 0 {
		t.Fatal("IEC 104 analysis broke under detect mode")
	}

	stats := make(map[protocol.ID]DialectStat)
	for _, ds := range p.Dialects {
		stats[ds.Proto] = ds
	}
	for _, want := range []protocol.ID{protocol.C37118, protocol.Modbus} {
		ds, ok := stats[want]
		if !ok {
			t.Fatalf("no dialect stats for %s: %+v", want, p.Dialects)
		}
		if ds.Frames == 0 || ds.Bytes == 0 {
			t.Errorf("%s: empty decode: %+v", want, ds)
		}
		if ds.ParseErrors != 0 {
			t.Errorf("%s: %d parse errors on a healthy capture", want, ds.ParseErrors)
		}
		if len(ds.TokenCounts) == 0 {
			t.Errorf("%s: no tokens booked", want)
		}
	}
	if stats[protocol.C37118].TokenCounts["D"] == 0 {
		t.Errorf("C37.118 data frames missing from token counts: %v", stats[protocol.C37118].TokenCounts)
	}
	if stats[protocol.Modbus].TokenCounts["R3"] == 0 {
		t.Errorf("Modbus ReadHolding responses missing from token counts: %v", stats[protocol.Modbus].TokenCounts)
	}

	// The per-dialect token counts (summed from the connections'
	// chains) are the recount of the raw token streams of every dialect
	// Dialects reports.
	recount := make(map[protocol.ID]map[string]int)
	for ck, toks := range streams {
		id := toks[0].Proto
		if id == protocol.IEC104 {
			continue
		}
		if recount[id] == nil {
			recount[id] = make(map[string]int)
		}
		for _, tok := range streams[ck] {
			recount[id][tok.String()]++
		}
	}
	for id, want := range recount {
		if !reflect.DeepEqual(stats[id].TokenCounts, want) {
			t.Errorf("%s: token counts %v, recount of the token streams %v", id, stats[id].TokenCounts, want)
		}
	}

	// Every dialect contributes Markov chains, tagged with its proto.
	chains := make(map[protocol.ID]int)
	for _, cc := range p.Chains {
		chains[cc.Proto]++
	}
	if chains[protocol.IEC104] == 0 || chains[protocol.C37118] == 0 || chains[protocol.Modbus] == 0 {
		t.Fatalf("per-dialect chain counts incomplete: %v", chains)
	}

	// Physical series from at least two non-IEC dialects: PMU phasors
	// and Modbus holding registers.
	series := make(map[protocol.ID]int)
	for _, d := range p.Physical {
		series[d.Type.Proto()]++
	}
	if series[protocol.C37118] == 0 || series[protocol.Modbus] == 0 {
		t.Fatalf("per-dialect physical series incomplete: %v", series)
	}
	if series[protocol.IEC104] == 0 {
		t.Fatal("IEC 104 physical series vanished in detect mode")
	}

	// The PMU streams declare a data rate; the healthy capture must be
	// compliant against it.
	var pmuStreams int
	for _, sc := range p.Streams {
		if sc.Proto != protocol.C37118 {
			continue
		}
		pmuStreams++
		if sc.ConfiguredRate == 0 || sc.Frames == 0 {
			t.Errorf("stream %s/%s: empty rate state: %+v", sc.Conn, sc.Unit, sc)
		}
		if !sc.Compliant {
			t.Errorf("stream %s/%s: rate violation on a healthy capture: %s", sc.Conn, sc.Unit, sc.Detail)
		}
	}
	if pmuStreams == 0 {
		t.Fatalf("no C37.118 stream compliance verdicts: %+v", p.Streams)
	}
}

// TestDialectsOffByDefault: without EnableProtocols the same mixed
// capture books nothing in the generic path — the non-IEC traffic lands
// in OtherPorts exactly as before the refactor.
func TestDialectsOffByDefault(t *testing.T) {
	a := mixedAnalyzer(t, false, nil)
	p := a.Partial()
	if len(p.Dialects) != 0 || len(p.Streams) != 0 {
		t.Fatalf("generic decode ran without enabling: %+v %+v", p.Dialects, p.Streams)
	}
	for _, d := range p.Physical {
		if d.Type.Proto() != protocol.IEC104 {
			t.Fatalf("non-IEC physical series without enabling: %+v", d.Key)
		}
	}
	if p.OtherPorts[scadasim.PortModbus] == 0 {
		t.Fatalf("Modbus traffic not tallied under OtherPorts: %v", p.OtherPorts)
	}
}

// TestLossyMixedCaptureDrains: with the fault model degrading every
// server (dropped responses, torn frames) the analyzer must still drain
// the capture: sessions resynchronise, pairing survives lost responses,
// and the dialect stats stay sane.
func TestLossyMixedCaptureDrains(t *testing.T) {
	cfg := scadasim.DefaultConfig(topology.Y1, 23)
	cfg.Duration = 5 * time.Minute
	cfg.EnableModbus = true
	cfg.Faults = scadasim.Faults{TimeoutProb: 0.2, ShortReadProb: 0.3}
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
	a := NewAnalyzer(NamesFromTopology(sim.Network()))
	a.EnableProtocolDetect()
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
		a.FeedPacket(pkt)
	}
	p := a.Partial()
	stats := make(map[protocol.ID]DialectStat)
	for _, ds := range p.Dialects {
		stats[ds.Proto] = ds
	}
	// Torn frames reassemble: requests still decode, and the responses
	// that did arrive still pair and yield measurements.
	if stats[protocol.Modbus].Frames == 0 || stats[protocol.C37118].Frames == 0 {
		t.Fatalf("lossy capture decoded no frames: %+v", p.Dialects)
	}
	if stats[protocol.Modbus].TokenCounts["F3"] == 0 || stats[protocol.Modbus].TokenCounts["R3"] == 0 {
		t.Fatalf("modbus pairing lost under faults: %v", stats[protocol.Modbus].TokenCounts)
	}
	var modbusSeries int
	for _, d := range p.Physical {
		if d.Type.Proto() == protocol.Modbus {
			modbusSeries++
		}
	}
	if modbusSeries == 0 {
		t.Fatal("no modbus measurements survived the lossy link")
	}
}

// TestPhysicalTypeOfRoundTrip pins the PointType packing the mixed
// tests rely on.
func TestPhysicalTypeOfRoundTrip(t *testing.T) {
	pt := physical.TypeOf(protocol.Modbus, 3)
	if pt.Proto() != protocol.Modbus || pt.Code() != 3 {
		t.Fatalf("TypeOf round trip broke: %v -> %v/%v", pt, pt.Proto(), pt.Code())
	}
}

// TestDialectFeedAllocCeiling is a CI tripwire like
// pcap.TestReadPacketIntoAllocCeiling: once a C37.118 and a Modbus flow
// are established, feeding each another frame as a TCP segment — flow
// and session bookkeeping, reassembly, decode, token and session
// tallies, physical samples — must not touch the heap. Series creation
// is excluded by pre-feeding; the occasional doubling of a sample, gap
// or token buffer averages out below one allocation per run.
func TestDialectFeedAllocCeiling(t *testing.T) {
	a := NewAnalyzer(nil)
	a.EnableProtocols(protocol.C37118, protocol.Modbus)

	pmu := netip.MustParseAddrPort("10.0.9.1:40001")
	pdc := netip.MustParseAddrPort("10.0.0.5:4712")
	master := netip.MustParseAddrPort("10.0.0.6:40002")
	plc := netip.MustParseAddrPort("10.0.8.1:502")
	at := time.Unix(1560000000, 0).UTC()
	feed := newWire(a, at).send

	cfg := &c37118.Config{
		IDCode: 7, Time: at, DataRate: 30,
		PMUs: []c37118.PMUConfig{{
			StationName: "PMU", IDCode: 8, PhasorNames: []string{"VA", "VB", "IA"},
			NominalFreq: 60, ConversionFactor: 0.01,
		}},
	}
	cf, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	df, err := (&c37118.Data{IDCode: 7, Time: at, PMUs: []c37118.PMUData{{
		Phasors: []c37118.Phasor{{Magnitude: 132}, {Magnitude: 131}, {Magnitude: 4}},
		Freq:    60.002,
	}}}).Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := modbus.ReadRequest(9, 1, modbus.FuncReadHolding, 100, 6)
	resp := modbus.ReadRegistersResponse(9, 1, modbus.FuncReadHolding, []uint16{1, 2, 3, 4, 5, 6})

	frame := func() {
		feed(pmu, pdc, df)
		feed(master, plc, req)
		feed(plc, master, resp)
	}
	feed(pmu, pdc, cf)
	for i := 0; i < 64; i++ {
		frame()
	}
	if got := len(a.Physical().All()); got != 5+6 {
		t.Fatalf("pre-feed built %d series, want 11", got)
	}
	if n := testing.AllocsPerRun(400, frame); n != 0 {
		t.Errorf("%v allocs per C37.118 frame + Modbus poll, want 0", n)
	}
	if a.ParseErrors != 0 {
		t.Fatalf("%d parse errors on clean frames", a.ParseErrors)
	}
}

// TestSniffedFlowClaims: under auto-detection a flow on a port no
// dialect owns is claimed by content sniff, IEC 104 like any dialect.
// IEC 104 on port 2405 is profiled — a chain, a compliance row, type
// counts — and without auto-detection it stays other traffic; a Modbus
// flow whose transaction ID begins with IEC 104's start byte is Modbus,
// whatever the ID's low byte (the APDU length octet it lines up with).
func TestSniffedFlowClaims(t *testing.T) {
	u := func(fn iec104.UFunc) []byte {
		b, err := iec104.NewU(fn).Marshal(iec104.Standard)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ack, err := iec104.NewS(1).Marshal(iec104.Standard)
	if err != nil {
		t.Fatal(err)
	}
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	rtu := netip.MustParseAddrPort("10.0.1.1:2405")
	master := netip.MustParseAddrPort("10.0.0.6:40002")
	plc := netip.MustParseAddrPort("10.0.8.1:5020")
	type msg struct {
		from netip.AddrPort
		data []byte
	}
	iecExchange := []msg{
		{scada, u(iec104.UStartDTAct)}, {rtu, u(iec104.UStartDTCon)},
		{rtu, measurementFrame(t, 0, 100, 50)}, {scada, ack},
	}
	modbusExchange := func(txid uint16) []msg {
		return []msg{
			{master, modbus.ReadRequest(txid, 1, modbus.FuncReadHolding, 100, 6)},
			{plc, modbus.ReadRegistersResponse(txid, 1, modbus.FuncReadHolding, []uint16{1, 2, 3, 4, 5, 6})},
		}
	}
	for _, tc := range []struct {
		name     string
		detect   bool
		exchange []msg
		conn     ConnKey
		proto    protocol.ID // the claiming dialect; unclaimed when port is set
		port     uint16      // the OtherPorts entry of an unclaimed flow
	}{
		{"iec104 on 2405, auto", true, iecExchange, ConnKey{scada.Addr(), rtu.Addr()}, protocol.IEC104, 0},
		{"iec104 on 2405", false, iecExchange, ConnKey{}, 0, 2405},
		{"modbus with txid 0x6805 on 5020, auto", true, modbusExchange(0x6805), ConnKey{master.Addr(), plc.Addr()}, protocol.Modbus, 0},
		{"modbus with txid 0x6810 on 5020, auto", true, modbusExchange(0x6810), ConnKey{master.Addr(), plc.Addr()}, protocol.Modbus, 0},
		{"modbus with txid 0x68FD on 5020, auto", true, modbusExchange(0x68FD), ConnKey{master.Addr(), plc.Addr()}, protocol.Modbus, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAnalyzer(nil)
			if tc.detect {
				a.EnableProtocolDetect()
			}
			w := newWire(a, time.Unix(1560000000, 0).UTC())
			peer := map[netip.AddrPort]netip.AddrPort{scada: rtu, rtu: scada, master: plc, plc: master}
			sent := 0
			for _, m := range tc.exchange {
				w.send(m.from, peer[m.from], m.data)
				sent += len(m.data)
			}
			p := a.Partial()
			if tc.port != 0 {
				if len(p.Chains) != 0 || p.OtherPorts[tc.port] != sent {
					t.Fatalf("%d chains, OtherPorts %v; want none and %d bytes on %d", len(p.Chains), p.OtherPorts, sent, tc.port)
				}
				return
			}
			if len(p.Chains) != 1 || p.Chains[0].Key != tc.conn || p.Chains[0].Proto != tc.proto || len(p.OtherPorts) != 0 {
				t.Fatalf("chains %+v, OtherPorts %v; want one %s chain of %v", p.Chains, p.OtherPorts, tc.proto, tc.conn)
			}
			if tc.proto != protocol.IEC104 {
				return
			}
			if p.TypeCounts[iec104.MMeNc] != 1 || p.TotalASDUs != 1 {
				t.Errorf("type counts %v, %d ASDUs; want one M_ME_NC_1", p.TypeCounts, p.TotalASDUs)
			}
			var station *StationCompliance
			for i := range p.Compliance {
				if p.Compliance[i].Addr == rtu.Addr() {
					station = &p.Compliance[i]
				}
			}
			if station == nil || station.Frames != 2 || !station.Detected || station.Profile != iec104.Standard {
				t.Errorf("station compliance %+v in %+v, want 2 frames of the standard dialect", station, p.Compliance)
			}
		})
	}
}
