package tcpflow

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestPendingCoverStartsFurthestBack: when a segment closes a gap and
// two buffered segments both reach past the new reassembly point, the
// one starting furthest back is taken first and the other supplies only
// what lies beyond it. Their bytes disagree where they overlap (a
// retransmission with different content), so taking the later-starting
// one first would deliver "QQQQQQQ" after the gap instead.
func TestPendingCoverStartsFurthestBack(t *testing.T) {
	var s stream
	var got []byte
	for _, seg := range []struct {
		seq  uint32
		data string
	}{
		{0, "a"},
		{2, "PPPPPPPP"},   // 2..10, buffered
		{4, "QQQQQQQQQQ"}, // 4..14, buffered
		{1, "bbbbbb"},     // 1..7: both buffered segments reach past 7
	} {
		data, _, _ := s.insert(seg.seq, []byte(seg.data))
		got = append(got, data...)
	}
	if want := "abbbbbbPPPQQQQ"; string(got) != want {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	if s.next != 14 || len(s.pending) != 0 {
		t.Fatalf("next %d, %d segments still pending", s.next, len(s.pending))
	}
}

// FuzzStreamReassembly cuts a known byte stream into segments at any
// offsets and lengths — so with overlaps, duplicates and reordering —
// from an initial sequence number the fuzzer picks, wrap included, and
// feeds them to one stream. After every segment the bytes delivered so
// far are the stream from the first segment's offset on, and the
// reassembly point is where they end; every buffered segment lies ahead
// of that point, and pending never holds more bytes than were fed. A
// last segment reaching the end delivers the whole rest and leaves
// nothing pending.
func FuzzStreamReassembly(f *testing.F) {
	f.Add(uint32(1000), uint16(30), []byte{0, 0, 9, 0, 10, 9, 0, 20, 9})                 // in order
	f.Add(uint32(1000), uint16(30), []byte{0, 20, 9, 0, 10, 9, 0, 0, 9})                 // reversed
	f.Add(uint32(0xFFFFFFF0), uint16(40), []byte{0, 0, 7, 0, 20, 9, 0, 12, 15, 0, 8, 3}) // across the wrap
	f.Add(uint32(7), uint16(50), []byte{0, 5, 4, 0, 30, 9, 0, 30, 9, 0, 32, 3, 0, 28, 12, 0, 6, 40})
	f.Add(uint32(0), uint16(64), []byte{0, 0, 1, 0, 2, 7, 0, 4, 9, 0, 1, 5}) // two covers of one point
	f.Fuzz(func(t *testing.T, isn uint32, size uint16, cuts []byte) {
		n := int(size)%4096 + 1
		truth := make([]byte, n)
		for i := range truth {
			truth[i] = byte(i*7 + i>>8)
		}
		var s stream
		var got []byte
		start, fed := -1, 0
		feed := func(off, l int) {
			if start < 0 {
				start = off
			}
			data, _, _ := s.insert(isn+uint32(off), truth[off:off+l])
			got = append(got, data...)
			fed += l
			if !bytes.HasPrefix(truth[start:], got) {
				t.Fatalf("after %d bytes at offset %d: delivered %x, not the stream from offset %d", l, off, got, start)
			}
			if want := isn + uint32(start+len(got)); s.next != want {
				t.Fatalf("reassembly point %d, want %d", s.next, want)
			}
			held := 0
			for k, p := range s.pending {
				if !seqLess(s.next, k) {
					t.Fatalf("segment at %d pending behind the reassembly point %d", k, s.next)
				}
				held += len(p)
			}
			if held > fed {
				t.Fatalf("pending holds %d bytes of %d fed", held, fed)
			}
		}
		for i := 0; i+3 <= len(cuts); i += 3 {
			off := int(binary.BigEndian.Uint16(cuts[i:])) % n
			feed(off, min(int(cuts[i+2])%64+1, n-off))
		}
		if start < 0 {
			return
		}
		feed(start, n-start)
		if !bytes.Equal(got, truth[start:]) || len(s.pending) != 0 {
			t.Fatalf("delivered %d of %d bytes, %d segments still pending", len(got), n-start, len(s.pending))
		}
	})
}
