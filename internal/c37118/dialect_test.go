package c37118

import (
	"bytes"
	"math"
	"testing"
	"time"

	"uncharted/internal/protocol"
)

// The generic token kinds must mirror the wire frame types byte for
// byte — session.Next casts FrameType straight into Token.Kind.
func TestTokenKindsMirrorFrameTypes(t *testing.T) {
	pairs := []struct {
		ft   FrameType
		kind uint8
	}{
		{FrameData, protocol.KindC37Data},
		{FrameHeader, protocol.KindC37Header},
		{FrameConfig1, protocol.KindC37Config1},
		{FrameConfig2, protocol.KindC37Config2},
		{FrameCommand, protocol.KindC37Command},
	}
	for _, p := range pairs {
		if uint8(p.ft) != p.kind {
			t.Errorf("FrameType %v = %d, protocol kind = %d", p.ft, p.ft, p.kind)
		}
	}
}

func dialectTestCfg(rate int16) *Config {
	return &Config{
		IDCode: 7,
		Time:   time.Unix(1500000000, 0).UTC(),
		PMUs: []PMUConfig{{
			StationName:      "PMU-A",
			IDCode:           21,
			PhasorNames:      []string{"VA", "VB"},
			NominalFreq:      50,
			ConversionFactor: 0.01,
		}},
		DataRate: rate,
	}
}

// Drive a config + data-frame stream through the dialect session and
// require tokens, extracted measurements and a data-rate verdict.
func TestSessionDecodeAndCompliance(t *testing.T) {
	d := protocol.Get(protocol.C37118)
	if d == nil {
		t.Fatal("c37118 dialect not registered")
	}
	cfg := dialectTestCfg(25)
	var stream []byte
	cf, err := cfg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, cf...)
	base := cfg.Time
	const frames = 51
	for i := 0; i < frames; i++ {
		df, err := (&Data{
			IDCode: cfg.IDCode,
			Time:   base.Add(time.Duration(i) * 40 * time.Millisecond), // 25 fps
			PMUs: []PMUData{{
				Stat: 0,
				Phasors: []Phasor{
					{Name: "VA", Magnitude: 120, AngleRad: 0.1},
					{Name: "VB", Magnitude: 121, AngleRad: -0.1},
				},
				Freq:  50.01,
				ROCOF: 0.02,
			}},
		}).Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, df...)
	}

	sess := d.NewSession()
	var toks []protocol.Token
	var points int
	var lastPts []protocol.Point
	buf := stream
	for {
		ev, rest, _, ok := sess.Next(buf, true)
		if !ok {
			break
		}
		buf = rest
		if ev.Err != nil {
			t.Fatalf("decode error: %v", ev.Err)
		}
		toks = append(toks, ev.Token)
		points += len(ev.Points)
		if len(ev.Points) > 0 {
			lastPts = append(lastPts[:0], ev.Points...)
		}
	}
	if len(toks) != frames+1 {
		t.Fatalf("tokens = %d, want %d", len(toks), frames+1)
	}
	if toks[0].String() != "C2" || toks[1].String() != "D" {
		t.Fatalf("token stream starts %v %v, want C2 D", toks[0], toks[1])
	}
	// 2 phasors + freq + rocof per data frame.
	if points != frames*4 {
		t.Fatalf("points = %d, want %d", points, frames*4)
	}
	var sawFreq, sawPhasor bool
	for _, p := range lastPts {
		switch p.Code {
		case protocol.C37PointFreq:
			sawFreq = true
			if math.Abs(p.V-50.01) > 0.01 {
				t.Errorf("freq = %v, want ~50.01", p.V)
			}
			if p.IOA != uint32(21)<<8|1 {
				t.Errorf("freq IOA = %d, want %d", p.IOA, uint32(21)<<8|1)
			}
		case protocol.C37PointPhasor:
			sawPhasor = true
		}
		if p.T.IsZero() {
			t.Error("point carries no frame timestamp")
		}
	}
	if !sawFreq || !sawPhasor {
		t.Fatalf("missing point kinds: freq=%v phasor=%v", sawFreq, sawPhasor)
	}

	scs := sess.(protocol.ComplianceReporter).Compliance()
	if len(scs) != 1 {
		t.Fatalf("compliance entries = %d, want 1", len(scs))
	}
	sc := scs[0]
	if sc.Unit != "pmu-7" {
		t.Errorf("unit = %q", sc.Unit)
	}
	if !sc.Compliant {
		t.Errorf("stream at nominal rate judged non-compliant: %s", sc.Detail)
	}
	if sc.ConfiguredRate != 25 {
		t.Errorf("configured rate = %v, want 25", sc.ConfiguredRate)
	}
	if math.Abs(sc.ObservedRate-25) > 1 {
		t.Errorf("observed rate = %v, want ~25", sc.ObservedRate)
	}
}

// A stream running far below its configured rate must fail compliance.
func TestSessionRateViolation(t *testing.T) {
	cfg := dialectTestCfg(50) // declares 50 fps
	sess := dialect{}.NewSession()
	cf, _ := cfg.Marshal()
	var stream []byte
	stream = append(stream, cf...)
	for i := 0; i < 20; i++ {
		df, _ := (&Data{
			IDCode: cfg.IDCode,
			Time:   cfg.Time.Add(time.Duration(i) * 100 * time.Millisecond), // 10 fps
			PMUs: []PMUData{{
				Phasors: []Phasor{{Magnitude: 1}, {Magnitude: 1}},
				Freq:    50,
			}},
		}).Marshal(cfg)
		stream = append(stream, df...)
	}
	buf := stream
	for {
		ev, rest, _, ok := sess.Next(buf, true)
		if !ok {
			break
		}
		if ev.Err != nil {
			t.Fatal(ev.Err)
		}
		buf = rest
	}
	scs := sess.(protocol.ComplianceReporter).Compliance()
	if len(scs) != 1 || scs[0].Compliant {
		t.Fatalf("10 fps stream against 50 fps config judged compliant: %+v", scs)
	}
}

// A truncated or corrupted frame must surface as an error event, not a
// stall or a panic, and the stream must resynchronise on the next
// frame.
func TestSessionRecoversFromCorruption(t *testing.T) {
	cfg := dialectTestCfg(25)
	sess := dialect{}.NewSession()
	cf, _ := cfg.Marshal()
	corrupt := append([]byte(nil), cf...)
	corrupt[len(corrupt)-1] ^= 0xFF // break CRC
	stream := append(corrupt, cf...)

	var errs, good int
	buf := stream
	for {
		ev, rest, _, ok := sess.Next(buf, true)
		if !ok {
			break
		}
		buf = rest
		if ev.Err != nil {
			errs++
		} else {
			good++
		}
	}
	if errs != 1 || good != 1 {
		t.Fatalf("errs=%d good=%d, want 1/1", errs, good)
	}
}

// FuzzSessionNext hammers the framing + decode loop with arbitrary
// bytes: it must never panic, never loop without consuming input, and
// always account skipped garbage.
func FuzzSessionNext(f *testing.F) {
	cfg := dialectTestCfg(25)
	cf, _ := cfg.Marshal()
	df, _ := (&Data{
		IDCode: cfg.IDCode,
		Time:   cfg.Time,
		PMUs: []PMUData{{
			Phasors: []Phasor{{Magnitude: 1}, {Magnitude: 2}},
			Freq:    50,
		}},
	}).Marshal(cfg)
	f.Add(append(append([]byte{}, cf...), df...))
	f.Add(append([]byte{0xAA, 0x01, 0x00, 0x10}, bytes.Repeat([]byte{0}, 12)...))
	f.Add([]byte{0xAA})
	f.Add(append([]byte{0x00, 0xAA, 0xFF}, cf...))
	// Mixed-garbage corpus: frames of the *other* registered dialects
	// spliced around valid C37.118 bytes — the misrouted-flow resync
	// cases a mixed tap produces. 0x68… is an IEC 104 S-frame, the
	// 00 01 00 00 00 06 prefix is an MBAP read request.
	iecS := []byte{0x68, 0x04, 0x01, 0x00, 0x00, 0x00}
	mbap := []byte{0x00, 0x01, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x64, 0x00, 0x06}
	f.Add(append(append(append([]byte{}, iecS...), cf...), df...))
	f.Add(append(append(append([]byte{}, mbap...), df...), iecS...))
	f.Add(append(append(append([]byte{}, cf...), mbap...), df...))
	// Mid-stream re-configuration: the compiled layout changes shape
	// between two data frames.
	reconfig, _, _ := reconfigStream(f)
	f.Add(reconfig)
	f.Fuzz(func(t *testing.T, data []byte) {
		sess := dialect{}.NewSession()
		buf := data
		for i := 0; i < len(data)+4; i++ {
			before := len(buf)
			ev, rest, skipped, ok := sess.Next(buf, i%2 == 0)
			if skipped < 0 {
				t.Fatalf("negative skip %d", skipped)
			}
			if !ok {
				if len(rest) > before {
					t.Fatalf("rest grew: %d -> %d", before, len(rest))
				}
				break
			}
			if len(rest) >= before {
				t.Fatalf("no progress: %d -> %d", before, len(rest))
			}
			_ = ev
			buf = rest
		}
	})
}
