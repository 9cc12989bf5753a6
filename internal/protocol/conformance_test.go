package protocol_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"uncharted/internal/c37118"
	"uncharted/internal/iec104"
	"uncharted/internal/modbus"
	"uncharted/internal/protocol"
)

// This file holds every registered dialect's sessions to the framing
// contract the analyzer relies on: a session frames through its
// dialect's Framing.Next, ok=false means only that more bytes are
// needed, and so what a direction's stream decodes to does not depend
// on how the sender's stack or the tap cut it into segments.

// event is what a session reports of one frame, copied out of the
// session's scratch.
type event struct {
	Token  protocol.Token
	Err    string
	Cause  string
	Points []protocol.Point
	Detail *protocol.Detail
}

func copyEvent(ev *protocol.Event) event {
	e := event{Token: ev.Token, Cause: ev.Cause, Points: append([]protocol.Point(nil), ev.Points...)}
	if ev.Err != nil {
		e.Err = ev.Err.Error()
	}
	if ev.Detail != nil {
		d := *ev.Detail
		d.Addrs = append([]uint32(nil), d.Addrs...)
		e.Detail = &d
	}
	return e
}

// outcome is what one direction's stream came to once it ended.
type outcome struct {
	events  []event
	framed  int // bytes in the frames the events came from
	skipped int
	left    []byte
}

// feed runs chunks as one direction's stream through a fresh session of
// d, the way the analyzer does: each chunk is appended to what the
// last call left, and Next is called until it asks for more bytes.
// Every call must report what d's Framing.Next reports on the same
// buffer, and must consume at least a byte or ask for more with less
// than the longest frame left.
func feed(t testing.TB, d protocol.Dialect, fromStation bool, chunks [][]byte) outcome {
	t.Helper()
	f, s := d.Framing(), d.NewSession()
	var o outcome
	for _, c := range chunks {
		buf := append(o.left, c...)
		for {
			_, frest, fskipped, fok := f.Next(buf)
			ev, rest, skipped, ok := s.Next(buf, fromStation)
			if ok != fok || skipped != fskipped || len(rest) != len(frest) {
				t.Fatalf("%s: the session returned ok=%v, skipped %d, left %d; its Framing.Next ok=%v, skipped %d, left %d",
					d.Name(), ok, skipped, len(rest), fok, fskipped, len(frest))
			}
			o.skipped += skipped
			if !ok {
				if len(rest) >= f.Max {
					t.Fatalf("%s: asked for more bytes with %d left, the longest frame is %d", d.Name(), len(rest), f.Max)
				}
				o.left = append([]byte(nil), rest...)
				break
			}
			if len(rest) >= len(buf) {
				t.Fatalf("%s: returned a frame and consumed none of %d bytes", d.Name(), len(buf))
			}
			o.framed += len(buf) - len(rest) - skipped
			o.events = append(o.events, copyEvent(&ev))
			buf = rest
		}
	}
	return o
}

// everyCut is the longest stream cut at every point; a longer one is
// cut into seeded random partitions.
const everyCut = 128

// cuts returns the ways checkSegmentation cuts data into segments.
func cuts(data []byte) [][][]byte {
	var out [][][]byte
	if len(data) <= everyCut {
		for i := 0; i <= len(data); i++ {
			out = append(out, [][]byte{data[:i], data[i:]})
		}
		return out
	}
	rng := rand.New(rand.NewSource(int64(len(data))))
	for _, most := range []int{1, 4, 16, 64, 256, 1024} {
		for n := 0; n < 2; n++ {
			var p [][]byte
			for rest := data; len(rest) > 0; {
				k := min(1+rng.Intn(most), len(rest))
				p, rest = append(p, rest[:k]), rest[k:]
			}
			out = append(out, p)
		}
	}
	return out
}

// checkSegmentation holds d's sessions in both directions to the
// framing contract on data: every byte is framed, skipped or left, and
// however data is cut into segments, the events, the total skipped and
// the leftover are those of the whole stream.
func checkSegmentation(t testing.TB, d protocol.Dialect, data []byte) {
	t.Helper()
	for _, fromStation := range []bool{false, true} {
		whole := feed(t, d, fromStation, [][]byte{data})
		if n := whole.framed + whole.skipped + len(whole.left); n != len(data) {
			t.Fatalf("%s: frames, skipped and leftover cover %d of %d bytes", d.Name(), n, len(data))
		}
		for _, segs := range cuts(data) {
			got := feed(t, d, fromStation, segs)
			if got.skipped != whole.skipped || !bytes.Equal(got.left, whole.left) {
				t.Fatalf("%s, %d segments: %d skipped, %d left; whole stream: %d, %d",
					d.Name(), len(segs), got.skipped, len(got.left), whole.skipped, len(whole.left))
			}
			if !reflect.DeepEqual(got.events, whole.events) {
				t.Fatalf("%s, %d segments: %d events differ from the whole stream's %d",
					d.Name(), len(segs), len(got.events), len(whole.events))
			}
		}
	}
}

// FuzzSessionSegmentation holds every registered dialect to the
// framing contract on arbitrary bytes. Its seeds are valid streams of
// each dialect spliced with garbage, false syncs, truncations and the
// other dialects' frames, and the seeds of the per-dialect framing
// targets.
func FuzzSessionSegmentation(f *testing.F) {
	for _, s := range corpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		for _, d := range protocol.All() {
			checkSegmentation(t, d, data)
		}
	})
}

// frameAll frames buf with f until it asks for more bytes.
func frameAll(f *protocol.Framing, buf []byte) (frames [][]byte, skipped int, left []byte) {
	for {
		frame, rest, n, ok := f.Next(buf)
		skipped += n
		if !ok {
			return frames, skipped, rest
		}
		frames = append(frames, frame)
		buf = rest
	}
}

// TestFramingTable pins each dialect's head rule on the shapes a tap
// delivers: an exact frame, a partial one, leading garbage, a false
// sync and two frames back to back. Each row is framed by the
// dialect's Framing and fed through its session.
func TestFramingTable(t *testing.T) {
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	iec := iecFrames(t)[1] // an M_ME_NC_1 I frame
	testfr := mustMarshalAPDU(t, iec104.NewU(iec104.UTestFRAct), iec104.Standard)
	c37 := c37Frames(t)[0] // a configuration frame
	mb := modbus.ReadRequest(7, 1, modbus.FuncReadInput, 0, 4)
	type row struct {
		name    string
		in      []byte
		frames  [][]byte
		skipped int
		left    []byte
	}
	table := map[protocol.ID][]row{
		protocol.IEC104: {
			{"exact", iec, [][]byte{iec}, 0, nil},
			{"partial", iec[:4], nil, 0, iec[:4]},
			{"leading_garbage", cat([]byte{0x00, 0x11, 0x22}, iec), [][]byte{iec}, 3, nil},
			// A start byte with a length octet below 4: both bytes are
			// skipped and the frame behind them comes out in the same call.
			{"false_sync", cat([]byte{0x68, 0x01}, iec), [][]byte{iec}, 2, nil},
			{"back_to_back", cat(iec, iec), [][]byte{iec, iec}, 0, nil},
			// A length octet above MaxAPDULen is a false start too.
			{"over_long", cat([]byte{0x68, 0xFE}, testfr), [][]byte{testfr}, 2, nil},
		},
		protocol.C37118: {
			{"exact", c37, [][]byte{c37}, 0, nil},
			{"partial", c37[:10], nil, 0, c37[:10]},
			{"leading_garbage", cat([]byte{0x01, 0x02, 0x03}, c37), [][]byte{c37}, 3, nil},
			// Garbage holding a false sync: 0xAA with a reserved frame type.
			{"false_sync", cat([]byte{0x01, 0xAA, 0xFF, 0x00, 0x00, 0x02}, c37), [][]byte{c37}, 6, nil},
			{"back_to_back", cat(c37, c37), [][]byte{c37, c37}, 0, nil},
		},
		protocol.Modbus: {
			{"exact", mb, [][]byte{mb}, 0, nil},
			{"partial", mb[:6], nil, 0, mb[:6]},
			// Non-zero protocol id bytes: no header lines up until the frame.
			{"leading_garbage", cat([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xFF}, mb), [][]byte{mb}, 5, nil},
			// An MBAP head with a zero length field.
			{"false_sync", cat([]byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x00}, mb), [][]byte{mb}, 6, nil},
			{"back_to_back", cat(mb, mb), [][]byte{mb, mb}, 0, nil},
		},
	}
	for _, d := range protocol.All() {
		for _, r := range table[d.ID()] {
			t.Run(d.Name()+"/"+r.name, func(t *testing.T) {
				frames, skipped, left := frameAll(d.Framing(), r.in)
				if !reflect.DeepEqual(frames, r.frames) || skipped != r.skipped || !bytes.Equal(left, r.left) {
					t.Fatalf("framed %d frames, skipped %d, left %d; want %d, %d, %d",
						len(frames), skipped, len(left), len(r.frames), r.skipped, len(r.left))
				}
				if len(r.frames) > 0 && !d.Sniff(r.frames[0]) {
					t.Fatal("the dialect does not sniff its own frame")
				}
				o := feed(t, d, true, [][]byte{r.in})
				if len(o.events) != len(r.frames) || o.skipped != r.skipped || !bytes.Equal(o.left, r.left) {
					t.Fatalf("the session booked %d frames, skipped %d, left %d; want %d, %d, %d",
						len(o.events), o.skipped, len(o.left), len(r.frames), r.skipped, len(r.left))
				}
			})
		}
	}
}

func mustMarshalAPDU(t testing.TB, a *iec104.APDU, p iec104.Profile) []byte {
	t.Helper()
	b, err := a.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// iecFrames returns a station's IEC 104 exchange as the simulator
// writes one: STARTDT, measurements with and without time tags, an
// interrogation, a setpoint, an acknowledgement and a test frame, in
// the standard encoding and in a legacy one.
func iecFrames(t testing.TB) [][]byte {
	t.Helper()
	tagged := iec104.Value{Kind: iec104.KindFloat, Float: 60.01, HasTime: true,
		Time: iec104.CP56Time2a{Time: time.Date(2019, 6, 8, 12, 0, 0, 0, time.UTC)}}
	multi := iec104.NewMeasurement(iec104.MMeNc, 9, 2001, iec104.Value{Kind: iec104.KindFloat, Float: -12.5}, iec104.CausePeriodic)
	multi.Objects = append(multi.Objects, iec104.InfoObject{IOA: 2002, Value: iec104.Value{Kind: iec104.KindFloat, Float: 230.5}})
	asdus := []*iec104.ASDU{
		iec104.NewMeasurement(iec104.MMeNc, 9, 2001, iec104.Value{Kind: iec104.KindFloat, Float: -12.5}, iec104.CausePeriodic),
		multi,
		iec104.NewMeasurement(iec104.MMeTf, 5, 1201, tagged, iec104.CauseSpontaneous),
		iec104.NewInterrogation(7, iec104.CauseActivation),
		iec104.NewSetpointFloat(3, 4001, 120.5, iec104.CauseActivation),
	}
	out := [][]byte{mustMarshalAPDU(t, iec104.NewU(iec104.UStartDTAct), iec104.Standard)}
	for _, p := range []iec104.Profile{iec104.Standard, iec104.LegacyCOTIOA} {
		for i, a := range asdus {
			out = append(out, mustMarshalAPDU(t, iec104.NewI(uint16(i), 0, a), p))
		}
	}
	return append(out,
		mustMarshalAPDU(t, iec104.NewS(5), iec104.Standard),
		mustMarshalAPDU(t, iec104.NewU(iec104.UTestFRAct), iec104.Standard))
}

// pmuConfig is a two-PMU gateway like the simulator's, with the shape
// of its second PMU set by phasors.
func pmuConfig(phasors ...string) *c37118.Config {
	return &c37118.Config{
		IDCode: 900,
		Time:   time.Unix(1560000000, 0).UTC(),
		PMUs: []c37118.PMUConfig{
			{StationName: "PMU-NORTH", IDCode: 901, PhasorNames: []string{"VA", "VB", "IA"}, NominalFreq: 60, ConversionFactor: 0.01},
			{StationName: "PMU-SOUTH", IDCode: 902, PhasorNames: phasors, NominalFreq: 60, ConversionFactor: 0.01},
		},
		DataRate: 1,
	}
}

// pmuData is cfg's data frame number i.
func pmuData(t testing.TB, cfg *c37118.Config, i int) []byte {
	t.Helper()
	d := &c37118.Data{IDCode: cfg.IDCode, Time: cfg.Time.Add(time.Duration(i+1) * time.Second)}
	for _, p := range cfg.PMUs {
		pd := c37118.PMUData{Freq: 60 + 0.01*math.Sin(float64(i)), ROCOF: 0.02}
		for j, name := range p.PhasorNames {
			pd.Phasors = append(pd.Phasors, c37118.Phasor{Name: name, Magnitude: 130 + float64(i+j), AngleRad: 0.1 * float64(j)})
		}
		d.PMUs = append(d.PMUs, pd)
	}
	b, err := d.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// c37Frames returns a PMU gateway's stream: its configuration, data
// frames, then a re-configuration that changes the second PMU's shape
// and data frames in the new shape.
func c37Frames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, cfg := range []*c37118.Config{pmuConfig("VA", "IA"), pmuConfig("VA", "VB", "VC", "IA")} {
		b, err := cfg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		for i := 0; i < 3; i++ {
			out = append(out, pmuData(t, cfg, i))
		}
	}
	return out
}

// modbusFrames returns a polling association's frames: register and
// coil reads with their responses, a single-register write and its
// echo, a multi-register write and an exception.
func modbusFrames() [][]byte {
	write := modbus.WriteSingle(3, 1, modbus.FuncWriteSingleReg, 200, 512)
	return [][]byte{
		modbus.ReadRequest(1, 1, modbus.FuncReadHolding, 100, 6),
		modbus.ReadRegistersResponse(1, 1, modbus.FuncReadHolding, []uint16{3000, 3040, 3080, 3120, 3160, 3200}),
		modbus.ReadRequest(2, 1, modbus.FuncReadCoils, 10, 8),
		modbus.ReadBitsResponse(2, 1, modbus.FuncReadCoils, []bool{true, false, true, true, false, false, true, false}),
		write, write,
		modbus.WriteMultipleRegs(4, 1, 60, []uint16{7, 8}),
		modbus.WriteMultipleAck(4, 1, modbus.FuncWriteMultipleRegs, 60, 2),
		modbus.ReadRequest(5, 1, modbus.FuncReadInput, 9000, 4),
		modbus.Exception(5, 1, modbus.FuncReadInput, 2),
	}
}

// falseSyncs are heads that open like a frame of some dialect and are
// not one: start bytes with too short and too long length octets, sync
// bytes with a reserved frame type and a too small size, and MBAP
// heads with a zero length and a zero function code.
var falseSyncs = [][]byte{
	{0x68, 0x01}, {0x68, 0x00, 0x00}, {0x68, 0xFE}, {0x68, 0xFF},
	{0xAA, 0xFF}, {0xAA, 0x01, 0x00, 0x02},
	{0x00, 0x01, 0x00, 0x00, 0x00, 0x00}, {0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x00},
}

// corpus returns the seeded streams the harness starts from.
func corpus(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(7))
	valid := [][][]byte{iecFrames(t), c37Frames(t), modbusFrames()}
	var out [][]byte
	for i, frames := range valid {
		whole := bytes.Join(frames, nil)
		other := valid[(i+1)%len(valid)]
		var garbage, syncs, mixed, lossy []byte
		for j, fr := range frames {
			junk := make([]byte, 1+rng.Intn(16))
			rng.Read(junk)
			garbage = append(append(garbage, junk...), fr...)
			syncs = append(append(syncs, falseSyncs[j%len(falseSyncs)]...), fr...)
			mixed = append(append(mixed, other[j%len(other)]...), fr...)
			// A frame that lost its tail, as after a dropped segment.
			if j%3 == 1 {
				fr = fr[:len(fr)/2]
			}
			lossy = append(lossy, fr...)
		}
		out = append(out, whole, garbage, syncs, mixed, lossy,
			whole[:len(whole)-3], // cut short
			append(append([]byte(nil), frames[0]...), whole[1:]...)) // a stray head
	}
	return append(append(out, iecSeeds(t)...), c37Seeds(t)...)
}

// iecSeeds are the IEC 104 framing seeds: a valid frame of every APCI
// format under every candidate profile, the malformed shapes the
// parser's robustness tests exercise, and false starts in front of,
// between and behind whole frames.
func iecSeeds(t testing.TB) [][]byte {
	asdus := []*iec104.ASDU{
		iec104.NewMeasurement(iec104.MMeTf, 5, 1201, iec104.Value{Kind: iec104.KindFloat, Float: 60.01, HasTime: true}, iec104.CauseSpontaneous),
		iec104.NewMeasurement(iec104.MMeNc, 9, 2001, iec104.Value{Kind: iec104.KindFloat, Float: -12.5}, iec104.CausePeriodic),
		iec104.NewInterrogation(7, iec104.CauseActivation),
		iec104.NewSetpointFloat(3, 4001, 120.5, iec104.CauseActivation),
	}
	var seeds [][]byte
	for _, p := range iec104.CandidateProfiles {
		for _, a := range asdus {
			seeds = append(seeds, mustMarshalAPDU(t, iec104.NewI(3, 4, a), p))
		}
	}
	good := seeds[0]
	seeds = append(seeds,
		mustMarshalAPDU(t, iec104.NewS(9), iec104.Standard),
		mustMarshalAPDU(t, iec104.NewU(iec104.UStartDTAct), iec104.Standard),
		nil,
		[]byte{iec104.StartByte},
		[]byte{0x69, 4, 0, 0},
		good[:3],
		good[:len(good)-2],
		append([]byte{iec104.StartByte, 0xff}, good[2:]...),
	)
	return append(seeds,
		append([]byte{0x68, 0x01}, seeds[0]...),
		append(append([]byte{0x68, 0x01, 0x68, 0x01}, seeds[len(seeds)-9]...), 0x68, 0x03),
		append(append(append([]byte(nil), seeds[1]...), 0x68, 0x00, 0x00), seeds[2]...))
}

// c37Seeds are the C37.118 session seeds: a configuration and a data
// frame, a minimal frame, a lone sync byte, a false sync, frames of the
// other dialects spliced around C37.118 frames, and a mid-stream
// re-configuration.
func c37Seeds(t testing.TB) [][]byte {
	cfg := &c37118.Config{
		IDCode: 7,
		Time:   time.Unix(1500000000, 0).UTC(),
		PMUs: []c37118.PMUConfig{{
			StationName: "PMU-A", IDCode: 21, PhasorNames: []string{"VA", "VB"}, NominalFreq: 50, ConversionFactor: 0.01,
		}},
		DataRate: 25,
	}
	cf, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	df, err := (&c37118.Data{IDCode: cfg.IDCode, Time: cfg.Time, PMUs: []c37118.PMUData{{
		Phasors: []c37118.Phasor{{Magnitude: 1}, {Magnitude: 2}}, Freq: 50,
	}}}).Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iecS := []byte{0x68, 0x04, 0x01, 0x00, 0x00, 0x00}
	mbap := []byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x64, 0x00, 0x06}
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }
	reconfig := c37Frames(t)
	return [][]byte{
		cat(cf, df),
		cat([]byte{0xAA, 0x01, 0x00, 0x10}, make([]byte, 12)),
		{0xAA},
		cat([]byte{0x00, 0xAA, 0xFF}, cf),
		cat(iecS, cf, df),
		cat(mbap, df, iecS),
		cat(cf, mbap, df),
		cat(reconfig[0], reconfig[1], reconfig[4], reconfig[5]),
	}
}

// benchSegment is one segment of a direction's stream.
type benchSegment struct {
	fromStation bool
	data        []byte
}

// benchStream returns a fixed seeded stream of whole-frame segments for
// a dialect: an IEC 104 station's measurements with the master's
// acknowledgements and test frames, a PMU gateway's data frames after
// its configuration, and a Modbus master's polls with their responses.
func benchStream(tb testing.TB, id protocol.ID) []benchSegment {
	rng := rand.New(rand.NewSource(31))
	var segs []benchSegment
	switch id {
	case protocol.IEC104:
		for i := 0; i < 512; i++ {
			a := iec104.NewMeasurement(iec104.MMeNc, 1, uint32(1000+rng.Intn(64)),
				iec104.Value{Kind: iec104.KindFloat, Float: 100 * rng.Float64()}, iec104.CausePeriodic)
			for k := rng.Intn(4); k > 0; k-- {
				a.Objects = append(a.Objects, iec104.InfoObject{IOA: uint32(1000 + rng.Intn(64)),
					Value: iec104.Value{Kind: iec104.KindFloat, Float: 100 * rng.Float64()}})
			}
			segs = append(segs, benchSegment{true, mustMarshalAPDU(tb, iec104.NewI(uint16(i), 0, a), iec104.Standard)})
			if i%8 == 7 {
				segs = append(segs, benchSegment{false, mustMarshalAPDU(tb, iec104.NewS(uint16(i+1)), iec104.Standard)})
			}
			if i%64 == 63 {
				segs = append(segs,
					benchSegment{false, mustMarshalAPDU(tb, iec104.NewU(iec104.UTestFRAct), iec104.Standard)},
					benchSegment{true, mustMarshalAPDU(tb, iec104.NewU(iec104.UTestFRCon), iec104.Standard)})
			}
		}
	case protocol.C37118:
		cfg := pmuConfig("VA", "IA")
		b, err := cfg.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, benchSegment{true, b})
		for i := 0; i < 512; i++ {
			segs = append(segs, benchSegment{true, pmuData(tb, cfg, rng.Intn(1<<16))})
		}
	case protocol.Modbus:
		for i := 0; i < 512; i++ {
			tx := uint16(i)
			if i%5 == 2 {
				bits := make([]bool, 8)
				for j := range bits {
					bits[j] = rng.Intn(2) == 0
				}
				segs = append(segs,
					benchSegment{false, modbus.ReadRequest(tx, 1, modbus.FuncReadCoils, 10, 8)},
					benchSegment{true, modbus.ReadBitsResponse(tx, 1, modbus.FuncReadCoils, bits)})
				continue
			}
			vals := make([]uint16, 6)
			for j := range vals {
				vals[j] = uint16(3000 + rng.Intn(300))
			}
			segs = append(segs,
				benchSegment{false, modbus.ReadRequest(tx, 1, modbus.FuncReadHolding, 100, 6)},
				benchSegment{true, modbus.ReadRegistersResponse(tx, 1, modbus.FuncReadHolding, vals)})
		}
	}
	return segs
}

// BenchmarkSessionNext frames and decodes each dialect's fixed stream
// through one session, segment by segment as the analyzer feeds it,
// and reports the cost per frame.
func BenchmarkSessionNext(b *testing.B) {
	for _, d := range protocol.All() {
		segs := benchStream(b, d.ID())
		if segs == nil {
			continue
		}
		b.Run(d.Name(), func(b *testing.B) {
			s := d.NewSession()
			frames := 0
			pass := func() {
				for _, sg := range segs {
					for buf := sg.data; ; frames++ {
						_, rest, _, ok := s.Next(buf, sg.fromStation)
						if !ok {
							break
						}
						buf = rest
					}
				}
			}
			pass() // the session learns the stream's configurations and encodings
			frames = 0
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(frames), "allocs/frame")
		})
	}
}
