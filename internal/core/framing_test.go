package core

import (
	"bytes"
	"testing"

	"uncharted/internal/iec104"
)

func mustFrame(t *testing.T) []byte {
	t.Helper()
	asdu := iec104.NewMeasurement(iec104.MMeNc, 1, 100,
		iec104.Value{Kind: iec104.KindFloat, Float: 1}, iec104.CausePeriodic)
	b, err := iec104.NewI(0, 0, asdu).Marshal(iec104.Standard)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNextFrameExact(t *testing.T) {
	frame := mustFrame(t)
	got, rest, skipped, ok := iec104.NextFrame(frame)
	if !ok || !bytes.Equal(got, frame) || len(rest) != 0 || skipped != 0 {
		t.Fatalf("ok=%v got=%d rest=%d skipped=%d", ok, len(got), len(rest), skipped)
	}
}

func TestNextFramePartial(t *testing.T) {
	frame := mustFrame(t)
	_, rest, skipped, ok := iec104.NextFrame(frame[:4])
	if ok {
		t.Fatal("partial frame extracted")
	}
	if len(rest) != 4 {
		t.Fatalf("partial buffer trimmed to %d", len(rest))
	}
	if skipped != 0 {
		t.Fatalf("skipped %d bytes of a clean partial frame", skipped)
	}
}

func TestNextFrameSkipsLeadingGarbage(t *testing.T) {
	frame := mustFrame(t)
	buf := append([]byte{0x00, 0x11, 0x22}, frame...)
	got, rest, skipped, ok := iec104.NextFrame(buf)
	if !ok || !bytes.Equal(got, frame) || len(rest) != 0 {
		t.Fatalf("resync failed: ok=%v got=%d rest=%d", ok, len(got), len(rest))
	}
	if skipped != 3 {
		t.Fatalf("skipped = %d, want 3", skipped)
	}
}

func TestNextFrameBadLengthResync(t *testing.T) {
	frame := mustFrame(t)
	// A false 0x68 followed by a too-small length, then a real frame.
	buf := append([]byte{0x68, 0x01}, frame...)
	// First call drops the false start byte.
	_, rest, skipped, ok := iec104.NextFrame(buf)
	if ok {
		t.Fatal("corrupt header extracted")
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the false start byte)", skipped)
	}
	got, rest2, skipped, ok := iec104.NextFrame(rest)
	if !ok || !bytes.Equal(got, frame) || len(rest2) != 0 {
		t.Fatalf("second resync failed: ok=%v", ok)
	}
	if skipped != 1 {
		t.Fatalf("second skipped = %d, want 1 (the stray length octet)", skipped)
	}
}

func TestNextFrameMultiple(t *testing.T) {
	frame := mustFrame(t)
	buf := append(append([]byte{}, frame...), frame...)
	n := 0
	for {
		got, rest, _, ok := iec104.NextFrame(buf)
		if !ok {
			break
		}
		if !bytes.Equal(got, frame) {
			t.Fatal("frame mismatch")
		}
		buf = rest
		n++
	}
	if n != 2 {
		t.Fatalf("extracted %d frames", n)
	}
}

func TestDirCountsTotal(t *testing.T) {
	dc := DirCounts{I: 2, S: 3, U: 5}
	if dc.Total() != 10 {
		t.Fatalf("total %d", dc.Total())
	}
}

func TestStrictPlausible(t *testing.T) {
	var tp iec104.TolerantParser
	std := mustFrame(t)
	if !tp.StrictPlausible(std) {
		t.Error("standard frame reported implausible")
	}
	asdu := iec104.NewMeasurement(iec104.MMeNc, 1, 100,
		iec104.Value{Kind: iec104.KindFloat, Float: 1}, iec104.CausePeriodic)
	legacy, err := iec104.NewI(0, 0, asdu).Marshal(iec104.LegacyCOT)
	if err != nil {
		t.Fatal(err)
	}
	if tp.StrictPlausible(legacy) {
		t.Error("legacy frame reported plausible")
	}
	// Control frames are always fine.
	u, _ := iec104.NewU(iec104.UTestFRAct).Marshal(iec104.Standard)
	if !tp.StrictPlausible(u) {
		t.Error("U frame reported implausible")
	}
}
