package iec104

import (
	"errors"
	"testing"
)

// buildIFrame returns a marshalled I-format APDU carrying one float
// measurement — the shape that dominates real SCADA captures and the
// pipeline's hot parse path.
func buildIFrame(t *testing.T) []byte {
	t.Helper()
	asdu := NewMeasurement(MMeNc, 1, 100, Value{Kind: KindFloat, Float: 60.0}, CauseSpontaneous)
	b, err := NewI(7, 3, asdu).Marshal(Standard)
	if err != nil {
		t.Fatalf("marshal I-frame: %v", err)
	}
	return b
}

// TestParseAPDUAllocCeiling pins the copying compatibility API's cost:
// one APDU is four allocations (ASDU struct, Objects slice, Raw copy,
// element decode). A regression here means the convenience path got
// more expensive, not just the hot path.
func TestParseAPDUAllocCeiling(t *testing.T) {
	frame := buildIFrame(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ParseAPDU(frame, Standard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("ParseAPDU allocations per frame = %.1f, want <= 4", allocs)
	}
}

// TestParseAPDUIntoZeroAlloc pins the scratch-reusing hot path at zero
// steady-state allocations: after one warm-up call sizes the Objects
// slice, re-parsing into the same scratch with aliasing enabled must
// not touch the heap at all.
func TestParseAPDUIntoZeroAlloc(t *testing.T) {
	frame := buildIFrame(t)
	var apdu APDU
	var asdu ASDU
	if _, err := ParseAPDUInto(&apdu, &asdu, frame, Standard, true); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseAPDUInto(&apdu, &asdu, frame, Standard, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseAPDUInto allocations per frame = %.1f, want 0", allocs)
	}
}

// TestTolerantParseFrameIntoZeroAlloc pins the endpoint-cached tolerant
// parser at zero steady-state allocations once the endpoint's profile
// has been detected and cached.
func TestTolerantParseFrameIntoZeroAlloc(t *testing.T) {
	frame := buildIFrame(t)
	tp := NewTolerantParser()
	var apdu APDU
	var asdu ASDU
	if _, err := tp.ParseFrameInto("10.0.0.1:2404", frame, &apdu, &asdu); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tp.ParseFrameInto("10.0.0.1:2404", frame, &apdu, &asdu); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseFrameInto allocations per frame = %.1f, want 0", allocs)
	}
}

// TestDecodeMissAllocs: rejecting a frame must not touch the heap.
// Frames no profile accepts (every flavour of malformed control field,
// an unsupported type, an invalid cause, a count that fits no dialect,
// an out-of-range time tag) fail through ParseFrameInto allocation-free
// and still match their sentinel; and an unpinned endpoint's legacy
// frame — four candidates miss, one hits, on every sweep — decodes
// allocation-free too.
func TestDecodeMissAllocs(t *testing.T) {
	timed := NewMeasurement(MMeTf, 1, 100, Value{Kind: KindFloat, Float: 60.0, HasTime: true}, CauseSpontaneous)
	timedFrame, err := NewI(0, 0, timed).Marshal(Standard)
	if err != nil {
		t.Fatal(err)
	}
	timedFrame[len(timedFrame)-3] = 0 // day 0
	good := buildIFrame(t)
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	misses := []struct {
		name  string
		frame []byte
		// strict is the sentinel a single-profile decode must still
		// report (nil: the site never had one).
		strict error
	}{
		{"s-with-asdu", mutate(func(b []byte) { b[2] = 0x01 }), ErrBadControl},
		{"u-with-asdu", mutate(func(b []byte) { b[2] = 0x07 }), ErrBadControl},
		{"u-function", []byte{StartByte, 4, 0x0F, 0, 0, 0}, ErrBadControl},
		{"u-padding", []byte{StartByte, 4, 0x07, 1, 0, 0}, ErrBadControl},
		{"unsupported-type", mutate(func(b []byte) { b[6] = 200 }), ErrUnsupportedType},
		{"invalid-cause", mutate(func(b []byte) { b[8] = 0 }), nil},
		{"object-count", mutate(func(b []byte) { b[7] = 5 }), ErrObjectCount},
		{"no-objects", mutate(func(b []byte) { b[7] = 0 }), ErrNoObjects},
		{"time-tag", timedFrame, nil},
	}
	tp := NewTolerantParser()
	var apdu APDU
	var asdu ASDU
	tp.ParseFrameInto("warm", good, &apdu, &asdu) // size the scratch
	for _, m := range misses {
		if _, err := tp.ParseFrameInto("miss", m.frame, &apdu, &asdu); !errors.Is(err, ErrNoProfile) {
			t.Fatalf("%s: tolerant error %v, want %v", m.name, err, ErrNoProfile)
		}
		if n := testing.AllocsPerRun(100, func() { tp.ParseFrameInto("miss", m.frame, &apdu, &asdu) }); n != 0 {
			t.Errorf("%s: %v allocs per rejected frame, want 0", m.name, n)
		}
		_, err := ParseAPDUInto(&apdu, &asdu, m.frame, Standard, true)
		if err == nil || (m.strict != nil && !errors.Is(err, m.strict)) {
			t.Errorf("%s: strict error %v, want %v", m.name, err, m.strict)
		}
	}

	// A wrong-dialect sweep: the endpoint is never pinned (a fresh slot
	// per run would allocate the slot), so pin nothing by unpinning.
	legacy, err := NewI(1, 1, NewMeasurement(MMeNc, 1, 100, Value{Kind: KindFloat, Float: 60.0}, CauseSpontaneous)).Marshal(LegacyFull)
	if err != nil {
		t.Fatal(err)
	}
	sweep := tp.Endpoint("legacy")
	n := testing.AllocsPerRun(100, func() {
		tp.eps[sweep] = endpointSlot{}
		if _, err := tp.ParseFrameAt(sweep, legacy, &apdu, &asdu); err != nil {
			t.Fatal(err)
		}
	})
	if p, _ := tp.ProfileAt(sweep); n != 0 || p != LegacyFull {
		t.Errorf("wrong-dialect sweep: %v allocs per frame (want 0), settled on %v", n, p)
	}
}
