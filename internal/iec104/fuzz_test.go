package iec104

import (
	"bytes"
	"testing"
)

// fuzzSeeds returns the corpus the fuzzers start from: one valid frame
// of every APCI format under every candidate profile, plus the
// malformed shapes the robustness tests already exercise (wrong start
// byte, lying length octet, truncations, empty input). Native fuzzing
// then mutates from frames that reach deep into the ASDU decoders
// instead of bouncing off the header checks.
func fuzzSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	asdus := []*ASDU{
		NewMeasurement(MMeTf, 5, 1201, Value{Kind: KindFloat, Float: 60.01, HasTime: true}, CauseSpontaneous),
		NewMeasurement(MMeNc, 9, 2001, Value{Kind: KindFloat, Float: -12.5}, CausePeriodic),
		NewInterrogation(7, CauseActivation),
		NewSetpointFloat(3, 4001, 120.5, CauseActivation),
	}
	for _, p := range CandidateProfiles {
		for _, a := range asdus {
			frame, err := NewI(3, 4, a).Marshal(p)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, frame)
		}
	}
	s, err := NewS(9).Marshal(Standard)
	if err != nil {
		f.Fatal(err)
	}
	u, err := NewU(UStartDTAct).Marshal(Standard)
	if err != nil {
		f.Fatal(err)
	}
	good := seeds[0]
	seeds = append(seeds, s, u,
		nil,                   // empty
		[]byte{StartByte},     // lone start byte
		[]byte{0x69, 4, 0, 0}, // wrong start byte
		good[:3],              // truncated header
		good[:len(good)-2],    // truncated body
		append([]byte{StartByte, 0xff}, good[2:]...), // lying length octet
	)
	return seeds
}

// FuzzParseAPDU checks the frame parser under every profile: it must
// never panic, must report consumed bytes inside the input, and any
// frame it accepts must survive a marshal → parse round trip.
func FuzzParseAPDU(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range CandidateProfiles {
			apdu, n, err := ParseAPDU(data, p)
			if err != nil {
				continue
			}
			if n <= 0 || n > len(data) {
				t.Fatalf("profile %v: consumed %d of %d bytes", p, n, len(data))
			}
			out, err := apdu.Marshal(p)
			if err != nil {
				// Some tolerated inputs (e.g. unsupported type IDs) parse
				// but do not re-marshal; that is fine.
				continue
			}
			re, _, err := ParseAPDU(out, p)
			if err != nil {
				t.Fatalf("profile %v: re-parse of re-marshalled frame failed: %v", p, err)
			}
			if re.Format != apdu.Format {
				t.Fatalf("profile %v: format changed across round trip: %v -> %v", p, apdu.Format, re.Format)
			}
		}
	})
}

// FuzzParseAPDUs checks the multi-frame splitter: no panics, and the
// consumed count must stay within the input.
func FuzzParseAPDUs(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// A two-frame seed exercises the resynchronisation path.
	f.Add(append(append([]byte(nil), seeds[0]...), seeds[1]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range CandidateProfiles {
			apdus, n, _ := ParseAPDUs(data, p)
			if n < 0 || n > len(data) {
				t.Fatalf("profile %v: consumed %d of %d bytes", p, n, len(data))
			}
			if len(apdus) > 0 && n == 0 {
				t.Fatalf("profile %v: returned %d frames without consuming input", p, len(apdus))
			}
		}
	})
}

// FuzzParseASDU fuzzes the payload decoder directly, bypassing the
// APCI header checks that shield it in FuzzParseAPDU.
func FuzzParseASDU(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		if len(s) > 6 {
			f.Add(s[6:]) // strip the APCI, leaving the raw ASDU
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range CandidateProfiles {
			_, _ = ParseASDU(data, p)
		}
	})
}

// FuzzTolerantParser drives the endpoint-learning parser, the exact
// code path the measurement pipeline feeds with live TCP payloads.
// DetectProfile rides along since the tolerant parser calls it while
// undecided.
func FuzzTolerantParser(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = DetectProfile(data)
		tp := NewTolerantParser()
		apdus, err := tp.Parse("fuzz-endpoint", data)
		if err == nil {
			for _, a := range apdus {
				if a == nil {
					t.Fatal("tolerant parser returned a nil frame without error")
				}
			}
		}
		// Feeding the same endpoint again must not panic either: the
		// parser keeps per-endpoint dialect state between calls.
		_, _ = tp.Parse("fuzz-endpoint", data)
	})
}

// frameAll frames chunks as one direction's stream, the way a session's
// caller does: each chunk is appended to what the last call left, and
// NextFrame is called until it asks for more bytes. It returns the
// frames, the total skipped and what is left when the stream ends. A
// call that returns a frame consumes at least one byte, and one that
// asks for more leaves less than the longest frame (257 bytes).
func frameAll(t *testing.T, chunks ...[]byte) (frames [][]byte, skipped int, left []byte) {
	t.Helper()
	for _, c := range chunks {
		buf := append(left, c...)
		for {
			frame, rest, n, ok := NextFrame(buf)
			skipped += n
			if !ok {
				if len(rest) >= 2+255 {
					t.Fatalf("asked for more bytes with %d left", len(rest))
				}
				left = append([]byte(nil), rest...)
				break
			}
			if len(rest) >= len(buf) || len(frame) == 0 {
				t.Fatalf("returned a frame of %d bytes and consumed none of %d", len(frame), len(buf))
			}
			frames = append(frames, frame)
			buf = rest
		}
	}
	return frames, skipped, left
}

// FuzzNextFrame holds IEC 104 framing to the session contract: every
// call makes progress or asks for more bytes with less than a frame
// left, and cutting the stream at any point yields the same frames, the
// same total skipped and the same leftover as framing it whole.
func FuzzNextFrame(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// False starts — a start byte whose length octet is below 4 — in
	// front of, between and behind whole frames.
	f.Add(append([]byte{StartByte, 0x01}, seeds[0]...))
	f.Add(append(append([]byte{StartByte, 0x01, StartByte, 0x01}, seeds[len(seeds)-9]...), StartByte, 0x03))
	f.Add(append(append(append([]byte(nil), seeds[1]...), StartByte, 0x00, 0x00), seeds[2]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		frames, skipped, left := frameAll(t, data)
		framed := skipped + len(left)
		for _, fr := range frames {
			framed += len(fr)
		}
		if framed != len(data) {
			t.Fatalf("frames, skipped and leftover cover %d of %d bytes", framed, len(data))
		}
		for cut := 0; cut <= len(data); cut++ {
			f2, s2, l2 := frameAll(t, data[:cut], data[cut:])
			if s2 != skipped || !bytes.Equal(l2, left) || len(f2) != len(frames) {
				t.Fatalf("cut at %d: %d frames, %d skipped, %d left; whole: %d, %d, %d",
					cut, len(f2), s2, len(l2), len(frames), skipped, len(left))
			}
			for i := range frames {
				if !bytes.Equal(f2[i], frames[i]) {
					t.Fatalf("cut at %d: frame %d differs", cut, i)
				}
			}
		}
	})
}
