package modbus

import (
	"reflect"
	"testing"

	"uncharted/internal/protocol"
)

func TestADURoundTrip(t *testing.T) {
	req := ReadRequest(42, 3, FuncReadHolding, 100, 8)
	a, err := DecodeADU(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.TxID != 42 || a.Unit != 3 || a.Func != FuncReadHolding || len(a.Data) != 4 {
		t.Fatalf("decoded %+v", a)
	}
	ex := Exception(42, 3, FuncReadHolding, 2)
	a, err = DecodeADU(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Exception() || a.BaseFunc() != FuncReadHolding {
		t.Fatalf("exception decode %+v", a)
	}
}

// Drive a polling exchange through the session: the response's register
// values must come back addressed by the request's start address.
func TestSessionRegisterRead(t *testing.T) {
	d := protocol.Get(protocol.Modbus)
	if d == nil {
		t.Fatal("modbus dialect not registered")
	}
	sess := d.NewSession()

	ev, _, _, ok := sess.Next(ReadRequest(9, 1, FuncReadHolding, 200, 3), false)
	if !ok || ev.Err != nil {
		t.Fatalf("request: ok=%v err=%v", ok, ev.Err)
	}
	if ev.Token.String() != "F3" {
		t.Fatalf("request token = %v", ev.Token)
	}
	if len(ev.Points) != 0 {
		t.Fatalf("read request yielded %d points", len(ev.Points))
	}

	ev, _, _, ok = sess.Next(ReadRegistersResponse(9, 1, FuncReadHolding, []uint16{11, 22, 33}), true)
	if !ok || ev.Err != nil {
		t.Fatalf("response: ok=%v err=%v", ok, ev.Err)
	}
	if ev.Token.String() != "R3" {
		t.Fatalf("response token = %v", ev.Token)
	}
	if len(ev.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(ev.Points))
	}
	for i, p := range ev.Points {
		if p.IOA != uint32(200+i) || p.Command {
			t.Errorf("point %d: %+v", i, p)
		}
	}
	if ev.Points[1].V != 22 {
		t.Errorf("point 1 value = %v", ev.Points[1].V)
	}

	// An unpaired response (unknown txid) yields a token but no points.
	ev, _, _, _ = sess.Next(ReadRegistersResponse(999, 1, FuncReadHolding, []uint16{5}), true)
	if len(ev.Points) != 0 {
		t.Fatalf("unpaired response yielded points")
	}
}

func TestSessionCoilReadAndWrites(t *testing.T) {
	sess := dialect{}.NewSession()
	if ev, _, _, _ := sess.Next(ReadRequest(1, 1, FuncReadCoils, 10, 10), false); ev.Err != nil {
		t.Fatal(ev.Err)
	}
	bits := []bool{true, false, true, true, false, false, true, false, true, true}
	ev, _, _, _ := sess.Next(ReadBitsResponse(1, 1, FuncReadCoils, bits), true)
	if len(ev.Points) != 10 {
		t.Fatalf("coil points = %d, want 10", len(ev.Points))
	}
	for i, p := range ev.Points {
		want := float64(0)
		if bits[i] {
			want = 1
		}
		if p.V != want || p.IOA != uint32(10+i) {
			t.Errorf("coil %d: %+v", i, p)
		}
	}

	// Writes are command points straight from the request.
	ev, _, _, _ = sess.Next(WriteSingle(2, 1, FuncWriteSingleReg, 50, 1234), false)
	if ev.Token.String() != "F6" || !ev.Token.IsCommand() {
		t.Fatalf("write token = %v, IsCommand = %v", ev.Token, ev.Token.IsCommand())
	}
	if len(ev.Points) != 1 || !ev.Points[0].Command || ev.Points[0].V != 1234 {
		t.Fatalf("write points = %+v", ev.Points)
	}
	ev, _, _, _ = sess.Next(WriteMultipleRegs(3, 1, 60, []uint16{7, 8}), false)
	if ev.Token.String() != "F16" || len(ev.Points) != 2 {
		t.Fatalf("multi-write token=%v points=%d", ev.Token, len(ev.Points))
	}

	// An exception response clears the pending pair and tokenises as X.
	sess.Next(ReadRequest(4, 1, FuncReadHolding, 0, 1), false)
	ev, _, _, _ = sess.Next(Exception(4, 1, FuncReadHolding, 2), true)
	if ev.Token.String() != "X3" || len(ev.Points) != 0 {
		t.Fatalf("exception token=%v points=%d", ev.Token, len(ev.Points))
	}
}

// TestPairingOverflowDeterministic: once unanswered reads fill the
// pairing table, which later responses decode is a function of the
// stream alone. Two sessions fed the same overflowing stream report
// the same events, and the table, cleared when full, pairs the reads
// booked after the clear.
func TestPairingOverflowDeterministic(t *testing.T) {
	const n = 1100
	run := func() []protocol.Event {
		sess := dialect{}.NewSession()
		var evs []protocol.Event
		book := func(b []byte, fromStation bool) {
			ev, _, _, ok := sess.Next(b, fromStation)
			if !ok || ev.Err != nil {
				t.Fatalf("ok=%v err=%v", ok, ev.Err)
			}
			ev.Points = append([]protocol.Point(nil), ev.Points...)
			evs = append(evs, ev)
		}
		for i := 0; i < n; i++ {
			book(ReadRequest(uint16(i), 1, FuncReadHolding, uint16(i), 1), false)
		}
		for i := 0; i < n; i++ {
			book(ReadRegistersResponse(uint16(i), 1, FuncReadHolding, []uint16{uint16(i)}), true)
		}
		return evs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sessions fed the same stream decoded different responses")
	}
	decoded := 0
	for _, ev := range a[n:] {
		if len(ev.Points) > 0 {
			decoded++
		}
	}
	if decoded != n-1024 {
		t.Fatalf("%d responses decoded, want the %d read after the table cleared", decoded, n-1024)
	}
}

// FuzzDecodeMBAP hammers framing + ADU decoding + session pairing with
// arbitrary bytes: no panics, guaranteed forward progress.
func FuzzDecodeMBAP(f *testing.F) {
	f.Add(ReadRequest(1, 1, FuncReadHolding, 0, 4))
	f.Add(ReadRegistersResponse(1, 1, FuncReadHolding, []uint16{1, 2, 3, 4}))
	f.Add(WriteMultipleRegs(2, 1, 10, []uint16{5}))
	f.Add(Exception(3, 1, FuncReadCoils, 1))
	f.Add([]byte{0, 1, 0, 0, 0, 2, 1})
	// Mixed-garbage corpus: other dialects' frames around valid MBAP —
	// Modbus has no magic byte, so resync relies on plausible-header
	// scanning and these are the realistic false-sync inputs. 0x68… is
	// an IEC 104 S-frame, 0xAA 0x01 opens a C37.118 data frame.
	iecS := []byte{0x68, 0x04, 0x01, 0x00, 0x00, 0x00}
	c37 := []byte{0xAA, 0x01, 0x00, 0x12, 0x00, 0x07, 0x5f, 0x5e, 0x10, 0x00, 0x00, 0x01, 0x86, 0xa0, 0x00, 0x00, 0xab, 0xcd}
	f.Add(append(append([]byte{}, iecS...), ReadRequest(4, 1, FuncReadHolding, 100, 6)...))
	f.Add(append(append([]byte{}, c37...), ReadRegistersResponse(4, 1, FuncReadHolding, []uint16{9})...))
	f.Add(append(append(append([]byte{}, ReadRequest(5, 1, FuncReadCoils, 10, 8)...), iecS...), c37...))
	f.Fuzz(func(t *testing.T, data []byte) {
		sess := dialect{}.NewSession()
		buf := data
		for i := 0; i < len(data)+4; i++ {
			before := len(buf)
			_, rest, skipped, ok := sess.Next(buf, i%2 == 1)
			if skipped < 0 {
				t.Fatalf("negative skip")
			}
			if !ok {
				if len(rest) > before {
					t.Fatalf("rest grew")
				}
				break
			}
			if len(rest) >= before {
				t.Fatalf("no progress: %d -> %d", before, len(rest))
			}
			buf = rest
		}
	})
}

// TestSessionNextAllocCeiling is a CI tripwire like
// pcap.TestReadPacketIntoAllocCeiling: a steady-state poll — request,
// then the paired response with its register points — must decode
// without touching the heap.
func TestSessionNextAllocCeiling(t *testing.T) {
	sess := dialect{}.NewSession()
	req := ReadRequest(9, 1, FuncReadHolding, 200, 3)
	resp := ReadRegistersResponse(9, 1, FuncReadHolding, []uint16{11, 22, 33})
	poll := func() int {
		sess.Next(req, false)
		ev, _, _, _ := sess.Next(resp, true)
		return len(ev.Points)
	}
	if n := poll(); n != 3 {
		t.Fatalf("warm-up poll yielded %d points, want 3", n)
	}
	if n := testing.AllocsPerRun(200, func() { poll() }); n != 0 {
		t.Errorf("%v allocs per request/response pair, want 0", n)
	}
}
