package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// atReader is the in-place face both readers offer over an image.
type atReader interface {
	NextAt() (hdr, off, end int, l *Layout, err error)
}

// drainAt is drain through NextAt: each record is the range of img the
// reader reports, which must lie inside img, and the CaptureInfo its
// Layout reads again from the record's header.
func (cr *captureRead) drainAt(t *testing.T, pr PacketReader, img []byte) {
	for {
		hdr, off, end, l, err := pr.(atReader).NextAt()
		if err == io.EOF {
			return
		}
		if err != nil {
			cr.err = err
			return
		}
		if hdr < 0 || hdr > off || off > end || end > len(img) {
			t.Fatalf("record %d: header at %d, bytes [%d, %d) of a %d-byte image", len(cr.datas), hdr, off, end, len(img))
		}
		roff, rend, ci := l.Record(img, hdr)
		if roff != off || rend != end {
			t.Fatalf("record %d at [%d, %d), read again at [%d, %d)", len(cr.datas), off, end, roff, rend)
		}
		cr.datas = append(cr.datas, img[off:end])
		cr.cis = append(cr.cis, ci)
	}
}

// sameRead reports how two reads differ: record count, any record's
// bytes or CaptureInfo, or the text of the error that ended them.
func sameRead(want, got captureRead) error {
	if len(got.datas) != len(want.datas) || !recordsMatch(got, want) {
		return fmt.Errorf("%d records, want %d (or a record differs)", len(got.datas), len(want.datas))
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Errorf("read ended %v, want %v", got.err, want.err)
	}
	return nil
}

// FuzzImageMatchesStream: the in-place readers are the streaming
// readers over another input, so whatever the bytes, reading a capture
// as an image must agree with reading it as a stream — record bytes,
// CaptureInfo and the error that ends the read — both for the whole
// capture (NewImageReader against NewAutoReader over a bytes.Reader)
// and segment by segment over plans of 2-4 segments (PlanImage against
// PlanSegments). Records are read both through ReadPacket and through
// NextAt, whose ranges must lie inside the image and whose Layout must
// read each record again from its header alone.
func FuzzImageMatchesStream(f *testing.F) {
	varied := make([][]byte, 12)
	for i := range varied {
		varied[i] = bytes.Repeat([]byte{byte(i), 0x5C}, 16+(i%29))
	}
	classic, offs := buildClassic(f, varied)
	pastEOF := bytes.Clone(classic)
	binary.LittleEndian.PutUint32(pastEOF[offs[len(offs)-1]+8:], 4096) // last caplen runs past EOF
	snapZero := bytes.Clone(classic)
	binary.LittleEndian.PutUint32(snapZero[16:20], 0)
	ng := buildNgTwoSections(5)
	for _, seed := range [][]byte{classic, pastEOF, classic[:24], snapZero, ng, ng[:len(ng)-7], buildBigEndianNanos(9)} {
		for _, n := range []uint8{0, 1, 2} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, file []byte, n uint8) {
		want := readSequential(file)
		var got, at captureRead
		if pr, err := NewImageReader(file); err != nil {
			got.err, at.err = err, err
		} else {
			got.drain(pr)
			pr, _ = NewImageReader(file)
			at.drainAt(t, pr, file)
		}
		if err := sameRead(want, got); err != nil {
			t.Fatalf("image ReadPacket: %v", err)
		}
		if err := sameRead(want, at); err != nil {
			t.Fatalf("image NextAt: %v", err)
		}

		segs := 2 + int(n%3)
		splan, serr := PlanSegments(bytes.NewReader(file), int64(len(file)), segs)
		iplan, ierr := PlanImage(file, segs)
		if fmt.Sprint(serr) != fmt.Sprint(ierr) {
			t.Fatalf("plans refused differently: %v / %v", ierr, serr)
		}
		if serr != nil {
			return
		}
		for i := 0; i < splan.Len(); i++ {
			if i >= iplan.Len() || splan.Segment(i) != iplan.Segment(i) {
				t.Fatalf("segment %d planned differently", i)
			}
			var want, got, at captureRead
			spr, _ := splan.Open(i)
			want.drain(spr)
			ipr, _ := iplan.Open(i)
			got.drain(ipr)
			ipr, _ = iplan.Open(i)
			at.drainAt(t, ipr, file)
			if err := sameRead(want, got); err != nil {
				t.Fatalf("segment %d of %d, ReadPacket: %v", i, splan.Len(), err)
			}
			if err := sameRead(want, at); err != nil {
				t.Fatalf("segment %d of %d, NextAt: %v", i, splan.Len(), err)
			}
		}
	})
}
