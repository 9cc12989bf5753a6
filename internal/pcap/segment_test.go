package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// truncated reports whether err looks like a cut-off record rather
// than corrupt framing.
func truncated(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// buildClassic writes a classic pcap with the given payload sizes and
// returns the file bytes plus the byte offset of every record.
func buildClassic(t testing.TB, payloads [][]byte) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 11, 3, 12, 0, 0, 0, time.UTC)
	var offs []int64
	for i, pl := range payloads {
		offs = append(offs, int64(buf.Len()))
		ci := CaptureInfo{Timestamp: base.Add(time.Duration(i) * 250 * time.Millisecond)}
		if err := w.WritePacket(ci, pl); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), offs
}

// captureRead is what one way of reading a capture produced: the
// records it yielded before stopping and why it stopped.
type captureRead struct {
	datas [][]byte
	cis   []CaptureInfo
	err   error // nil for a clean io.EOF
}

// drain appends pr's records to cr and reports whether pr ended cleanly;
// any other error is kept in cr.err.
func (cr *captureRead) drain(pr PacketReader) bool {
	for {
		data, ci, err := pr.ReadPacket()
		if err == io.EOF {
			return true
		}
		if err != nil {
			cr.err = err
			return false
		}
		cr.datas = append(cr.datas, data)
		cr.cis = append(cr.cis, ci)
	}
}

func readSequential(file []byte) captureRead {
	var cr captureRead
	pr, err := NewAutoReader(bytes.NewReader(file))
	if err != nil {
		cr.err = err
		return cr
	}
	cr.drain(pr)
	return cr
}

// readSegmented plans n segments and reads them in order, stopping at
// the first one that does not end cleanly, as a sequential reader would.
// The plan is nil when PlanSegments refused the capture.
func readSegmented(file []byte, n int) (captureRead, *SegmentPlan) {
	var cr captureRead
	plan, err := PlanSegments(bytes.NewReader(file), int64(len(file)), n)
	if err != nil {
		cr.err = err
		return cr, nil
	}
	for i := 0; i < plan.Len(); i++ {
		pr, err := plan.Open(i)
		if err != nil {
			cr.err = err
			break
		}
		if !cr.drain(pr) {
			break
		}
	}
	return cr, plan
}

// recordsMatch reports whether got's records are, in order, the first
// len(got.datas) of want's.
func recordsMatch(got, want captureRead) bool {
	if len(got.datas) > len(want.datas) {
		return false
	}
	for i := range got.datas {
		if !bytes.Equal(got.datas[i], want.datas[i]) || got.cis[i] != want.cis[i] {
			return false
		}
	}
	return true
}

// assertSameRecords requires the segmented read to reproduce the
// sequential read exactly, both ending cleanly.
func assertSameRecords(t *testing.T, file []byte, n int) *SegmentPlan {
	t.Helper()
	want := readSequential(file)
	got, plan := readSegmented(file, n)
	if want.err != nil || got.err != nil {
		t.Fatalf("sequential read ended %v, %d-segment read %v", want.err, n, got.err)
	}
	if len(got.datas) != len(want.datas) || !recordsMatch(got, want) {
		t.Fatalf("segmented read (%d records, plan %d segs) differs from sequential (%d records)",
			len(got.datas), plan.Len(), len(want.datas))
	}
	return plan
}

// TestPlanClassicBoundariesAreRecordStarts: every planned boundary in
// a classic pcap must be a true record offset, across segment counts.
func TestPlanClassicBoundariesAreRecordStarts(t *testing.T) {
	payloads := make([][]byte, 400)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i), 0xAB}, 20+(i%37))
	}
	file, offs := buildClassic(t, payloads)
	isRecord := map[int64]bool{}
	for _, o := range offs {
		isRecord[o] = true
	}
	for _, n := range []int{2, 3, 4, 7, 16} {
		plan := assertSameRecords(t, file, n)
		for i := 0; i < plan.Len(); i++ {
			if off := plan.Segment(i).Off; !isRecord[off] {
				t.Errorf("n=%d: segment %d starts at %d, not a record boundary", n, i, off)
			}
		}
		if plan.Len() < 2 {
			t.Errorf("n=%d: plan collapsed to %d segments on a 400-record file", n, plan.Len())
		}
	}
}

// fakeHeaderPayloads returns n packet bodies made of back-to-back byte
// runs that parse as plausible record headers of buildClassic's capture
// (sane lengths, a timestamp inside its window), so nearly every probe
// offset inside a body lands on one.
func fakeHeaderPayloads(n int) [][]byte {
	base := time.Date(2017, 11, 3, 12, 0, 0, 0, time.UTC)
	fake := make([]byte, 16)
	binary.LittleEndian.PutUint32(fake[0:4], uint32(base.Unix())+5) // in-window timestamp
	binary.LittleEndian.PutUint32(fake[4:8], 123456)
	binary.LittleEndian.PutUint32(fake[8:12], 52)  // capLen: plausible
	binary.LittleEndian.PutUint32(fake[12:16], 52) // origLen == capLen
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = bytes.Repeat(fake, 4)
	}
	return payloads
}

// TestPlanClassicFakeValidatingPayload plants byte sequences inside
// packet bodies that parse as plausible record headers (sane lengths,
// a timestamp inside the capture's window) — a single-header check
// would bite; the chain validation must step over them.
func TestPlanClassicFakeValidatingPayload(t *testing.T) {
	file, offs := buildClassic(t, fakeHeaderPayloads(200))
	isRecord := map[int64]bool{}
	for _, o := range offs {
		isRecord[o] = true
	}
	for _, n := range []int{2, 4, 8} {
		plan := assertSameRecords(t, file, n)
		for i := 0; i < plan.Len(); i++ {
			if off := plan.Segment(i).Off; !isRecord[off] {
				t.Errorf("n=%d: segment %d starts inside a packet body at %d", n, i, off)
			}
		}
	}
}

// TestPlanClassicTruncatedFinalSegment: a capture cut mid-record still
// yields every whole record, and the reader of the last segment
// reports the same truncation error a sequential read does.
func TestPlanClassicTruncatedFinalSegment(t *testing.T) {
	payloads := make([][]byte, 120)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 60)
	}
	file, _ := buildClassic(t, payloads)
	trunc := file[:len(file)-30] // tear the final record's body

	plan, err := PlanSegments(bytes.NewReader(trunc), int64(len(trunc)), 4)
	if err != nil {
		t.Fatal(err)
	}
	var whole int
	var segErr error
	for i := 0; i < plan.Len(); i++ {
		pr, err := plan.Open(i)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, _, err := pr.ReadPacket()
			if err == io.EOF {
				break
			}
			if err != nil {
				segErr = err
				break
			}
			whole++
		}
	}
	if whole != len(payloads)-1 {
		t.Errorf("whole records = %d, want %d", whole, len(payloads)-1)
	}
	if segErr == nil {
		t.Fatal("truncated final record surfaced no error")
	}
	// Sequential read errors the same way (modulo the record index).
	seq, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var wantErr error
	for {
		_, _, err := seq.ReadPacket()
		if err != nil {
			wantErr = err
			break
		}
	}
	if wantErr == nil || !truncated(segErr) || !truncated(wantErr) {
		t.Errorf("segment error %v vs sequential %v: both should be truncation", segErr, wantErr)
	}
}

// TestPlanClassicSingleRecordAndOversplit: one record, many requested
// segments — the plan must degrade to one segment, never tear.
func TestPlanClassicSingleRecordAndOversplit(t *testing.T) {
	file, _ := buildClassic(t, [][]byte{bytes.Repeat([]byte{0x42}, 80)})
	plan := assertSameRecords(t, file, 8)
	if plan.Len() != 1 {
		t.Errorf("single-record plan has %d segments, want 1", plan.Len())
	}

	// More segments than records on a small multi-record file: every
	// record still appears exactly once.
	file2, _ := buildClassic(t, [][]byte{{1, 2, 3}, {4, 5}, {6}})
	assertSameRecords(t, file2, 16)
}

// TestPlanClassicEmptyCapture: header, no records.
func TestPlanClassicEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeEthernet)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	got, plan := readSegmented(buf.Bytes(), 4)
	if got.err != nil || len(got.datas) != 0 || plan.Len() != 1 {
		t.Errorf("empty capture: %d records then %v, %d segments", len(got.datas), got.err, plan.Len())
	}
}

// buildNgTwoSections is a pcapng capture of two sections with perSection
// packets each: Ethernet at µs resolution, then a mid-file section
// header after which interface 0 is raw IP at ns resolution.
func buildNgTwoSections(perSection int) []byte {
	w := newNgWriter(binary.LittleEndian)
	w.shb()
	w.idb(LinkTypeEthernet, 0) // µs resolution
	base := time.Date(2019, 3, 9, 8, 0, 0, 0, time.UTC)
	for i := 0; i < perSection; i++ {
		w.epb(0, base.Add(time.Duration(i)*time.Second), 1_000_000, bytes.Repeat([]byte{byte(i)}, 40))
	}
	w.shb()
	w.idb(LinkTypeRaw, 9) // 10^-9
	for i := 0; i < perSection; i++ {
		w.epb(0, base.Add(time.Duration(100+i)*time.Second), 1_000_000_000, bytes.Repeat([]byte{0xFF, byte(i)}, 25))
	}
	return w.buf.Bytes()
}

// TestPlanNgMidFileSHB: a second section header mid-file resets the
// interface table; segments starting after it must decode with the
// new section's interfaces (different link type and ts resolution),
// exactly like a sequential read.
func TestPlanNgMidFileSHB(t *testing.T) {
	file := buildNgTwoSections(50)

	for _, n := range []int{2, 3, 4, 8} {
		assertSameRecords(t, file, n)
	}

	// At least one plan cuts inside the second section and its seeded
	// reader must answer the new link type.
	plan, err := PlanSegments(bytes.NewReader(file), int64(len(file)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() < 2 {
		t.Fatalf("plan has %d segments, want >= 2", plan.Len())
	}
	last, err := plan.Open(plan.Len() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := last.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if lt := last.LinkType(); lt != LinkTypeRaw {
		t.Errorf("last segment link type = %d, want raw (%d)", lt, LinkTypeRaw)
	}
}

// TestPlanNgOversplit: segment count far above the block count.
func TestPlanNgOversplit(t *testing.T) {
	w := newNgWriter(binary.LittleEndian)
	w.shb()
	w.idb(LinkTypeEthernet, 0)
	base := time.Date(2019, 3, 9, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		w.epb(0, base.Add(time.Duration(i)*time.Second), 1_000_000, []byte{byte(i), 1, 2})
	}
	assertSameRecords(t, w.buf.Bytes(), 32)
}

// TestPlanBigEndianNanos: the seeded classic reader carries byte
// order and timestamp resolution across segments.
func TestPlanBigEndianNanos(t *testing.T) {
	file := buildBigEndianNanos(64)
	for _, n := range []int{2, 4} {
		assertSameRecords(t, file, n)
	}
}

// buildBigEndianNanos hand-builds a big-endian nanosecond capture of n
// records (the Writer only emits little-endian µs).
func buildBigEndianNanos(n int) []byte {
	var buf bytes.Buffer
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[0:4], magicNanos)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 262144)
	binary.BigEndian.PutUint32(hdr[20:24], uint32(LinkTypeEthernet))
	buf.Write(hdr[:])
	base := time.Date(2017, 11, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		pl := bytes.Repeat([]byte{byte(i)}, 30+i%11)
		var rec [16]byte
		ts := base.Add(time.Duration(i) * 125 * time.Millisecond)
		binary.BigEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
		binary.BigEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()))
		binary.BigEndian.PutUint32(rec[8:12], uint32(len(pl)))
		binary.BigEndian.PutUint32(rec[12:16], uint32(len(pl)))
		buf.Write(rec[:])
		buf.Write(pl)
	}
	return buf.Bytes()
}
