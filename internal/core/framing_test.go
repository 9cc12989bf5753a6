package core

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
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

// frameCount is a FrameObserver counting the frames the analyzer books.
type frameCount int

func (n *frameCount) ObserveFrame(FrameEvent) { *n++ }

// TestFalseStartBooksFramesBehindIt: a false start byte (0x68 with a
// length octet below 4 or above 253) in front of complete frames in
// one segment does not strand them. The analyzer books the frames
// behind it as the segment arrives, as it would had the sender split
// the bytes after the false start, and leaves nothing in the
// direction's framing buffer.
func TestFalseStartBooksFramesBehindIt(t *testing.T) {
	testfr, err := iec104.NewU(iec104.UTestFRAct).Marshal(iec104.Standard)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := iec104.NewS(0).Marshal(iec104.Standard)
	if err != nil {
		t.Fatal(err)
	}
	rtu := netip.MustParseAddrPort("10.0.1.1:2404")
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	run := func(t *testing.T, segments [][]byte) (frameCount, *dirState) {
		t.Helper()
		var n frameCount
		a := NewAnalyzer(nil)
		a.SetFrameObserver(&n)
		w := newWire(a, time.Unix(1560000000, 0).UTC())
		for _, seg := range segments {
			w.send(scada, rtu, seg)
		}
		_, slot := w.slot(t, scada, rtu)
		return n, slot.(*dirState)
	}

	t.Run("one segment", func(t *testing.T) {
		seg := append(append([]byte{0x68, 0x01}, testfr...), ack...)
		n, d := run(t, [][]byte{seg})
		if n != 2 || len(d.buf) != 0 {
			t.Fatalf("booked %d frames with %d bytes left buffered, want 2 and 0", n, len(d.buf))
		}
		split, _ := run(t, [][]byte{seg[:2], seg[2:]})
		if split != n {
			t.Fatalf("the segment booked %d frames, the same bytes split after the false start %d", n, split)
		}
	})
	t.Run("200 segments", func(t *testing.T) {
		segs := make([][]byte, 200)
		for i := range segs {
			segs[i] = append([]byte{0x68, 0x01, 0x68, 0x01}, testfr...)
		}
		n, d := run(t, segs)
		if n != 200 || len(d.buf) != 0 {
			t.Fatalf("booked %d frames with %d bytes left buffered, want 200 and 0", n, len(d.buf))
		}
	})
	// Read as a length, an over-long octet would hold the frames behind
	// it until 256 or 257 bytes arrived, then book them all as one
	// parse error.
	for _, l := range []byte{0xFE, 0xFF} {
		t.Run(fmt.Sprintf("length %#x", l), func(t *testing.T) {
			n, d := run(t, [][]byte{append([]byte{0x68, l}, testfr...)})
			if n != 1 || len(d.buf) != 0 {
				t.Fatalf("booked %d frames with %d bytes left buffered, want 1 and 0", n, len(d.buf))
			}
		})
	}
}

// TestParseErrorWithoutJournalAllocs: an instrumented analyzer with no
// journal counts a parse error and builds no journal event for it, so a
// malformed frame on a known flow allocates nothing.
func TestParseErrorWithoutJournalAllocs(t *testing.T) {
	a := NewAnalyzer(nil)
	a.Instrument(obs.NewRegistry(), nil)
	w := newWire(a, time.Unix(1560000000, 0).UTC())
	rtu := netip.MustParseAddrPort("10.0.1.1:2404")
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	bad := []byte{iec104.StartByte, 0x04, 0x03, 0x00, 0x00, 0x00} // a U frame naming no function
	send := func() { w.send(scada, rtu, bad) }
	for i := 0; i < 8; i++ {
		send()
	}
	errs := a.ParseErrors
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("a parse error allocates %.1f objects without a journal, want 0", allocs)
	}
	if a.ParseErrors-errs != 201 {
		t.Fatalf("%d parse errors booked over 201 malformed frames", a.ParseErrors-errs)
	}
}
