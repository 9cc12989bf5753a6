package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// probeFooled reports whether a classic plan cut the capture at an
// offset where the sequential reader did not start a record.
func probeFooled(plan *SegmentPlan, seq captureRead) bool {
	if plan == nil || plan.ngStates != nil {
		return false
	}
	starts := map[int64]bool{}
	off := int64(24)
	starts[off] = true
	for _, ci := range seq.cis {
		off += 16 + int64(ci.CaptureLength)
		starts[off] = true
	}
	for i := 1; i < plan.Len(); i++ {
		if !starts[plan.Segment(i).Off] {
			return true
		}
	}
	return false
}

// FuzzPlanSegmentsMatchesSequential is the capture front door's
// differential target. Whatever the bytes, PlanSegments plus a read of
// every segment must not panic and must never yield a record the
// sequential reader does not; beyond that, one of three things holds:
//
//   - the plan is refused, and the sequential read ends in an error too;
//   - the records are exactly the sequential ones, and the read ends
//     cleanly exactly when the sequential one does;
//   - the classic-pcap probe was fooled, and the read failed safe. Classic
//     pcap has no per-record magic, so hostile bytes can plant a boundary
//     (a record whose capture length swallows its successors leaves their
//     headers validating inside its body). The reader ahead of such a
//     boundary meets the end of its range mid-record, so the read stops
//     with a truncation error on a prefix of the sequential records.
//
// pcapng is self-framing and gets no such exception.
func FuzzPlanSegmentsMatchesSequential(f *testing.F) {
	varied := make([][]byte, 16)
	for i := range varied {
		varied[i] = bytes.Repeat([]byte{byte(i), 0xAB}, 20+(i%37))
	}
	classic, _ := buildClassic(f, varied)
	fake, _ := buildClassic(f, fakeHeaderPayloads(12))
	ng := buildNgTwoSections(6)
	for _, seed := range [][]byte{
		classic,
		classic[:len(classic)-30], // final record torn
		classic[:24],              // header only
		fake,
		buildBigEndianNanos(12),
		ng,
		ng[:len(ng)-10], // final block torn
	} {
		for _, n := range []uint8{1, 3, 15} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, file []byte, n uint8) {
		segs := 1 + int(n%16)
		want := readSequential(file)
		got, plan := readSegmented(file, segs)
		if !recordsMatch(got, want) {
			t.Fatalf("%d segments yielded records the sequential read did not (%d vs %d)",
				segs, len(got.datas), len(want.datas))
		}
		if plan == nil && want.err != nil {
			return // refused outright, and the sequential read fails somewhere too
		}
		if len(got.datas) == len(want.datas) && (got.err == nil) == (want.err == nil) {
			return
		}
		if probeFooled(plan, want) && truncated(got.err) {
			return
		}
		t.Fatalf("%d segments: %d records then %v; sequential: %d records then %v",
			segs, len(got.datas), got.err, len(want.datas), want.err)
	})
}

// The three tests below pin what the fuzz target found in the readers:
// each input made the sequential read disagree with the planner.

// TestReaderCapsRecordLength: a header declaring no snap length (or an
// absurd one) must not let a record length size an allocation.
func TestReaderCapsRecordLength(t *testing.T) {
	for _, snapLen := range []uint32{0, 0xFFFFFFFF} {
		file, _ := buildClassic(t, [][]byte{{1, 2, 3}})
		binary.LittleEndian.PutUint32(file[16:20], snapLen)
		binary.LittleEndian.PutUint32(file[24+8:], 0xF0000000) // capLen
		r, err := NewReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.ReadPacket(); !errors.Is(err, ErrSnapLen) {
			t.Errorf("snap length %#x: 3.75 GB record read as %v, want ErrSnapLen", snapLen, err)
		}
	}
}

// TestNgReaderChecksFirstSHBTrailer: the leading section header's
// trailing length copy is verified like every other block's, so a
// damaged length cannot swallow the packets behind it.
func TestNgReaderChecksFirstSHBTrailer(t *testing.T) {
	file := buildNgTwoSections(2)
	binary.LittleEndian.PutUint32(file[4:8], uint32(len(file))) // SHB claims the whole file
	if _, err := NewNgReader(bytes.NewReader(file)); !errors.Is(err, ErrNgCorrupt) {
		t.Fatalf("SHB with mismatched trailing length opened: %v", err)
	}
}

// TestNgReaderParsesSectionHeaderBeforeInterface: a second section
// header met while scanning ahead for the first interface is parsed,
// not skipped.
func TestNgReaderParsesSectionHeaderBeforeInterface(t *testing.T) {
	w := newNgWriter(binary.LittleEndian)
	w.shb()
	w.shb()
	file := w.buf.Bytes()
	binary.LittleEndian.PutUint16(file[28+12:], 7) // second SHB: major version 7
	if _, err := NewNgReader(bytes.NewReader(file)); err == nil {
		t.Fatal("unsupported section version accepted during scan-ahead")
	}
}

// TestPlanClassicFooledProbeFailsSafe builds the case the fuzz target's
// third clause describes: record 10's capture length swallows records
// 11-13, whose intact headers still validate as a chain, so a probe that
// lands among them plants a boundary inside record 10's body. The
// sequential reader sees 27 records; the segmented read must stop at the
// false boundary with a truncation error on a prefix of them.
func TestPlanClassicFooledProbeFailsSafe(t *testing.T) {
	payloads := make([][]byte, 30)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 60)
	}
	file, offs := buildClassic(t, payloads)
	swallowed := uint32(60 + 3*(16+60))
	binary.LittleEndian.PutUint32(file[offs[10]+8:], swallowed)
	binary.LittleEndian.PutUint32(file[offs[10]+12:], swallowed)

	want := readSequential(file)
	if want.err != nil || len(want.datas) != 27 {
		t.Fatalf("sequential read: %d records then %v, want 27 then clean", len(want.datas), want.err)
	}
	fooled := false
	for n := 2; n <= 16; n++ {
		got, plan := readSegmented(file, n)
		if !probeFooled(plan, want) {
			if got.err != nil || len(got.datas) != 27 {
				t.Errorf("n=%d: sound plan read %d records then %v", n, len(got.datas), got.err)
			}
			continue
		}
		fooled = true
		if !recordsMatch(got, want) || len(got.datas) >= 27 || !truncated(got.err) {
			t.Errorf("n=%d: fooled probe read %d records then %v, want a prefix then truncation",
				n, len(got.datas), got.err)
		}
	}
	if !fooled {
		t.Error("no segment count planted a boundary among the swallowed records")
	}
}
