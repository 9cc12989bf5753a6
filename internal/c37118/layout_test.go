package c37118

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"uncharted/internal/protocol"
)

// crcBitwise is the bit-at-a-time CRC-CCITT the table replaced, kept as
// the reference the table is checked against.
func crcBitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// crcBytewise is the one-table-byte-a-step loop crcCCITT was before it
// took four bytes a step.
func crcBytewise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// TestCRCTableMatchesBitwise: the sliced CRC, the bytewise table loop
// and the bit-at-a-time definition agree on every length 0-300, so on
// every alignment of the four-byte step and its tail.
func TestCRCTableMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		buf := make([]byte, rng.Intn(301))
		rng.Read(buf)
		got := crcCCITT(buf)
		if bytewise, bitwise := crcBytewise(buf), crcBitwise(buf); got != bytewise || got != bitwise {
			t.Fatalf("len %d: sliced crc %#04x, bytewise %#04x, bitwise %#04x", len(buf), got, bytewise, bitwise)
		}
	}
}

// rawFrame wraps body in a common header and a valid CHK trailer.
func rawFrame(typ FrameType, id uint16, at time.Time, body []byte) []byte {
	size := 14 + len(body) + 2
	out := make([]byte, size)
	putHeader(out, typ, size, id, at)
	copy(out[14:], body)
	binary.BigEndian.PutUint16(out[size-2:], crcCCITT(out[:size-2]))
	return out
}

// rawConfig renders a configuration-2 frame the way Config.Marshal
// does, but accepts what Marshal refuses to emit: zero PMUs and a raw
// PHUNIT factor word of 0.
func rawConfig(id uint16, at time.Time, pmus []PMUConfig, factorWord uint32, rate int16) []byte {
	body := binary.BigEndian.AppendUint32(nil, 1_000_000)
	body = binary.BigEndian.AppendUint16(body, uint16(len(pmus)))
	for _, p := range pmus {
		body = append(body, padName(p.StationName, 16)...)
		body = binary.BigEndian.AppendUint16(body, p.IDCode)
		body = binary.BigEndian.AppendUint16(body, 0) // FORMAT
		body = binary.BigEndian.AppendUint16(body, uint16(len(p.PhasorNames)))
		body = binary.BigEndian.AppendUint16(body, 0) // analogs
		body = binary.BigEndian.AppendUint16(body, 0) // digital words
		for _, n := range p.PhasorNames {
			body = append(body, padName(n, 16)...)
		}
		for range p.PhasorNames {
			body = binary.BigEndian.AppendUint32(body, factorWord)
		}
		fnom := uint16(0)
		if p.NominalFreq == 50 {
			fnom = 1
		}
		body = binary.BigEndian.AppendUint16(body, fnom)
		body = binary.BigEndian.AppendUint16(body, 1) // CFGCNT
	}
	body = binary.BigEndian.AppendUint16(body, uint16(rate))
	return rawFrame(FrameConfig2, id, at, body)
}

// randomPMUs draws 0..4 PMUs of 0..8 phasors each at 50 or 60 Hz.
func randomPMUs(rng *rand.Rand) []PMUConfig {
	pmus := make([]PMUConfig, rng.Intn(5))
	for i := range pmus {
		pmus[i] = PMUConfig{
			StationName: fmt.Sprintf("PMU-%d", i),
			IDCode:      uint16(rng.Intn(1 << 16)),
			NominalFreq: []uint16{50, 60}[rng.Intn(2)],
		}
		for j, n := 0, rng.Intn(9); j < n; j++ {
			pmus[i].PhasorNames = append(pmus[i].PhasorNames, fmt.Sprintf("PH%d", j))
		}
	}
	return pmus
}

// pointsOf derives, from the structured form ParseData returns, the
// points a session must emit for the same frame.
func pointsOf(d *Data, cfg *Config) []protocol.Point {
	var pts []protocol.Point
	for i, pd := range d.PMUs {
		base := uint32(cfg.PMUs[i].IDCode) << 8
		pts = append(pts,
			protocol.Point{IOA: base | 1, Code: protocol.C37PointFreq, T: d.Time, V: pd.Freq},
			protocol.Point{IOA: base | 2, Code: protocol.C37PointROCOF, T: d.Time, V: pd.ROCOF},
		)
		for j, ph := range pd.Phasors {
			pts = append(pts, protocol.Point{
				IOA: base | uint32(16+j), Code: protocol.C37PointPhasor, T: d.Time, V: ph.Magnitude,
			})
		}
	}
	return pts
}

func requireSamePoints(t *testing.T, got, want []protocol.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("session emitted %d points, ParseData implies %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.IOA != w.IOA || g.Code != w.Code || !g.T.Equal(w.T) ||
			math.Float64bits(g.V) != math.Float64bits(w.V) || g.Command != w.Command {
			t.Fatalf("point %d: session %+v, ParseData %+v", i, g, w)
		}
	}
}

// TestSessionMatchesParseData: over random configurations and random
// data-frame bodies, the points a session emits are exactly the ones
// ParseData's structured decode implies.
func TestSessionMatchesParseData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	at := time.Unix(1560000000, 0).UTC()
	for round := 0; round < 300; round++ {
		factorWord := uint32(0)
		if rng.Intn(2) == 0 {
			factorWord = uint32(1 + rng.Intn(1<<24-1))
		}
		cf := rawConfig(7, at, randomPMUs(rng), factorWord, 30)
		cfg, err := ParseConfig(cf)
		if err != nil {
			t.Fatalf("round %d: config: %v", round, err)
		}
		sess := dialect{}.NewSession()
		if ev, _, _, ok := sess.Next(cf, true); !ok || ev.Err != nil {
			t.Fatalf("round %d: session rejected config: ok=%v err=%v", round, ok, ev.Err)
		}
		bodyLen := compileLayout(cfg).bodyLen
		for f := 0; f < 8; f++ {
			body := make([]byte, bodyLen)
			rng.Read(body)
			ft := at.Add(time.Duration(f)*33*time.Millisecond + time.Duration(rng.Intn(1000))*time.Microsecond)
			df := rawFrame(FrameData, 7, ft, body)
			d, err := ParseData(df, cfg)
			if err != nil {
				t.Fatalf("round %d frame %d: ParseData: %v", round, f, err)
			}
			ev, rest, _, ok := sess.Next(df, true)
			if !ok || ev.Err != nil || len(rest) != 0 {
				t.Fatalf("round %d frame %d: Next ok=%v err=%v rest=%d", round, f, ok, ev.Err, len(rest))
			}
			requireSamePoints(t, ev.Points, pointsOf(d, cfg))
		}
		// One byte short of the configured body must fail in both.
		if bodyLen > 0 {
			short := rawFrame(FrameData, 7, at, make([]byte, bodyLen-1))
			if _, err := ParseData(short, cfg); !errors.Is(err, ErrShortFrame) {
				t.Fatalf("round %d: ParseData on short body: %v", round, err)
			}
			if ev, _, _, ok := sess.Next(short, true); !ok || !errors.Is(ev.Err, ErrShortFrame) {
				t.Fatalf("round %d: Next on short body: ok=%v err=%v", round, ok, ev.Err)
			}
		}
	}
}

// reconfigStream is config(2 phasors) + data + config(3 phasors) +
// data on one IDCode, returned with the second configuration.
func reconfigStream(t testing.TB) (stream []byte, cfg2 *Config, lastData []byte) {
	cfg1 := dialectTestCfg(25)
	cfg2 = dialectTestCfg(25)
	cfg2.PMUs[0].PhasorNames = []string{"VA", "VB", "VC"}
	data := func(cfg *Config, mags ...float64) []byte {
		pd := PMUData{Freq: 50.02, ROCOF: -0.03}
		for i, m := range mags {
			pd.Phasors = append(pd.Phasors, Phasor{Magnitude: m, AngleRad: 0.2 * float64(i)})
		}
		df, err := (&Data{IDCode: cfg.IDCode, Time: cfg.Time.Add(40 * time.Millisecond), PMUs: []PMUData{pd}}).Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return df
	}
	lastData = data(cfg2, 118, 119, 120)
	for _, f := range [][]byte{mustMarshal(t, cfg1), data(cfg1, 120, 121), mustMarshal(t, cfg2), lastData} {
		stream = append(stream, f...)
	}
	return stream, cfg2, lastData
}

// TestSessionRecompilesOnReconfiguration: a second CFG-2 frame with a
// different phasor count must replace the compiled layout, so the data
// frames after it decode by the new shape.
func TestSessionRecompilesOnReconfiguration(t *testing.T) {
	stream, cfg2, lastData := reconfigStream(t)
	sess := dialect{}.NewSession()
	var counts []int
	var last []protocol.Point
	for buf := stream; ; {
		ev, rest, _, ok := sess.Next(buf, true)
		if !ok {
			break
		}
		buf = rest
		if ev.Err != nil {
			t.Fatalf("decode error: %v", ev.Err)
		}
		if ev.Token.Kind == protocol.KindC37Data {
			counts = append(counts, len(ev.Points))
			last = append(last[:0], ev.Points...)
		}
	}
	if len(counts) != 2 || counts[0] != 4 || counts[1] != 5 {
		t.Fatalf("points per data frame = %v, want [4 5]", counts)
	}
	parsed, err := ParseConfig(mustMarshal(t, cfg2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseData(lastData, parsed)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePoints(t, last, pointsOf(d, parsed))
}

func mustMarshal(t testing.TB, cfg *Config) []byte {
	t.Helper()
	b, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptIDCodeMintsNoStream: frames that fail their CRC carry an
// untrustworthy IDCode; they must count as parse errors without growing
// the session's stream table.
func TestCorruptIDCodeMintsNoStream(t *testing.T) {
	cfg := dialectTestCfg(25)
	cf := mustMarshal(t, cfg)
	sess := dialect{}.NewSession()
	if ev, _, _, ok := sess.Next(cf, true); !ok || ev.Err != nil {
		t.Fatalf("config rejected: ok=%v err=%v", ok, ev.Err)
	}
	var errs int
	for id := 0; id < 500; id++ {
		bad := append([]byte(nil), cf...)
		binary.BigEndian.PutUint16(bad[4:6], uint16(1000+id)) // CHK now stale
		ev, _, _, ok := sess.Next(bad, true)
		if !ok || !errors.Is(ev.Err, ErrBadCRC) {
			t.Fatalf("corrupt frame %d: ok=%v err=%v", id, ok, ev.Err)
		}
		errs++
	}
	// A corrupt frame that still names the live stream is charged to it.
	bad := append([]byte(nil), cf...)
	bad[len(bad)-1] ^= 0xFF
	if ev, _, _, _ := sess.Next(bad, true); !errors.Is(ev.Err, ErrBadCRC) {
		t.Fatalf("corrupt frame on live IDCode: err=%v", ev.Err)
	}
	scs := sess.(protocol.ComplianceReporter).Compliance()
	if len(scs) != 1 || scs[0].Unit != "pmu-7" {
		t.Fatalf("%d corrupt IDCodes minted streams: %d rows", errs, len(scs))
	}
	if scs[0].Errors != 1 {
		t.Fatalf("live stream charged %d errors, want 1", scs[0].Errors)
	}

	// A session that has seen nothing valid mints nothing either.
	fresh := dialect{}.NewSession()
	if ev, _, _, ok := fresh.Next(bad, true); !ok || !errors.Is(ev.Err, ErrBadCRC) {
		t.Fatalf("fresh session: ok=%v err=%v", ok, ev.Err)
	}
	if scs := fresh.(protocol.ComplianceReporter).Compliance(); len(scs) != 0 {
		t.Fatalf("fresh session minted %d streams from a corrupt frame", len(scs))
	}
}

// TestWrongTypeSentinel: handing a valid frame to the other type's
// parser returns the ErrWrongType sentinel, not a formatted error.
func TestWrongTypeSentinel(t *testing.T) {
	_, cfg2, lastData := reconfigStream(t)
	if _, err := ParseConfig(lastData); !errors.Is(err, ErrWrongType) {
		t.Fatalf("ParseConfig(data frame) = %v, want ErrWrongType", err)
	}
	if _, err := ParseData(mustMarshal(t, cfg2), cfg2); !errors.Is(err, ErrWrongType) {
		t.Fatalf("ParseData(config frame) = %v, want ErrWrongType", err)
	}
}

// TestSessionNextAllocCeiling is a CI tripwire like
// pcap.TestReadPacketIntoAllocCeiling: a steady-state data frame — and
// a frame failing its CRC — must decode without touching the heap.
func TestSessionNextAllocCeiling(t *testing.T) {
	_, cfg2, lastData := reconfigStream(t)
	sess := dialect{}.NewSession()
	sess.Next(mustMarshal(t, cfg2), true)
	if ev, _, _, _ := sess.Next(lastData, true); len(ev.Points) != 5 {
		t.Fatalf("warm-up frame yielded %d points, want 5", len(ev.Points))
	}
	if n := testing.AllocsPerRun(200, func() { sess.Next(lastData, true) }); n != 0 {
		t.Errorf("data frame: %v allocs per Next, want 0", n)
	}
	bad := append([]byte(nil), lastData...)
	bad[len(bad)-1] ^= 0xFF
	if n := testing.AllocsPerRun(200, func() { sess.Next(bad, true) }); n != 0 {
		t.Errorf("CRC miss: %v allocs per Next, want 0", n)
	}
}

// TestSessionStreamAllocCeiling bounds what a whole stream costs: a
// fresh session over one CFG-2 frame and 256 data frames allocates at
// most 32 times in total — the session, its stream row and the compiled
// layout — because the data frames contribute nothing. An allocation
// count does not depend on the runner, so this fails rather than warns.
func TestSessionStreamAllocCeiling(t *testing.T) {
	const frames, ceiling = 256, 32
	_, cfg2, lastData := reconfigStream(t)
	stream := append(mustMarshal(t, cfg2), bytes.Repeat(lastData, frames)...)
	decoded := 0
	n := testing.AllocsPerRun(20, func() {
		sess := dialect{}.NewSession()
		decoded = 0
		for buf := stream; ; decoded++ {
			ev, rest, _, ok := sess.Next(buf, true)
			if !ok {
				break
			}
			if ev.Err != nil {
				t.Fatalf("frame %d: %v", decoded, ev.Err)
			}
			buf = rest
		}
	})
	if decoded != frames+1 {
		t.Fatalf("decoded %d frames, want %d", decoded, frames+1)
	}
	if n > ceiling {
		t.Errorf("config + %d data frames: %v allocs, ceiling %d", frames, n, ceiling)
	}
	t.Logf("config + %d data frames: %v allocs", frames, n)
}
