package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"uncharted/internal/pcap"
)

// followCapture builds a classic pcap of about size bytes — seeded
// record lengths of 60 to 1 500 bytes, and one record of big bytes in
// the middle — and returns it with the offset each record ends at. The
// header declares no snap length, so the reader takes the big record.
func followCapture(t *testing.T, size, big int) (capture []byte, ends []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	var buf bytes.Buffer
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(pcap.LinkTypeEthernet))
	buf.Write(hdr[:])
	record := func(n int) {
		var rh [16]byte
		binary.LittleEndian.PutUint32(rh[0:4], uint32(1560000000+len(ends)))
		binary.LittleEndian.PutUint32(rh[8:12], uint32(n))
		binary.LittleEndian.PutUint32(rh[12:16], uint32(n))
		buf.Write(rh[:])
		body := make([]byte, n)
		rng.Read(body)
		buf.Write(body)
		ends = append(ends, buf.Len())
	}
	for buf.Len() < size/2 {
		record(60 + rng.Intn(1441))
	}
	record(big)
	for buf.Len() < size {
		record(60 + rng.Intn(1441))
	}
	return buf.Bytes(), ends
}

// TestFollowSourceWindowBounded: tailing reads a window ahead of the
// parse position, not the file. Over an 8 MB capture that is already
// there, over the same capture arriving in pieces cut inside the file
// header, a record header, a record body and the one 300 KiB record
// (larger than the window), and over a file still empty when the tail
// starts, FollowSource yields exactly the sequential reader's records —
// every complete record on disk, then ErrNotReady — while its buffer
// never outgrows two windows plus the largest record.
func TestFollowSourceWindowBounded(t *testing.T) {
	const big = 300 << 10
	capture, ends := followCapture(t, 8<<20, big)
	bigAt := 0
	for i := range ends {
		if i > 0 && ends[i]-ends[i-1] == 16+big {
			bigAt = i
		}
	}
	for _, tc := range []struct {
		name string
		cuts []int // file sizes after each write but the last
	}{
		{"existing", nil},
		{"grown", []int{10, ends[3] + 9, ends[len(ends)/4] + 16 + 30, ends[bigAt-1] + 16 + followWindow + 5, ends[bigAt] + 16}},
		{"empty", []int{0, ends[0]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "follow.pcap")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			src, err := NewFollowSource(path)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			seq, err := pcap.NewReader(bytes.NewReader(capture))
			if err != nil {
				t.Fatal(err)
			}

			written, read, peak := 0, 0, 0
			var scratch []byte
			for _, size := range append(tc.cuts, len(capture)) {
				if _, err := f.Write(capture[written:size]); err != nil {
					t.Fatal(err)
				}
				written = size
				for {
					data, ci, link, err := src.NextRaw(scratch[:0])
					peak = max(peak, cap(src.pending))
					if err == ErrNotReady {
						break
					}
					if err != nil {
						t.Fatalf("record %d with %d bytes on disk: %v", read, written, err)
					}
					scratch = data
					want, wantCI, err := seq.ReadPacket()
					if err != nil {
						t.Fatalf("FollowSource served record %d, the sequential reader: %v", read, err)
					}
					if !bytes.Equal(data, want) || ci != wantCI || link != pcap.LinkTypeEthernet {
						t.Fatalf("record %d: %d bytes at %v, sequential reader has %d bytes at %v", read, len(data), ci.Timestamp, len(want), wantCI.Timestamp)
					}
					read++
				}
				complete := 0
				for complete < len(ends) && ends[complete] <= written {
					complete++
				}
				if read != complete {
					t.Fatalf("%d records served with %d bytes on disk, %d are complete", read, written, complete)
				}
			}
			if _, _, err := seq.ReadPacket(); err != io.EOF || read != len(ends) {
				t.Fatalf("%d of %d records served (sequential reader: %v)", read, len(ends), err)
			}
			if limit := 2*followWindow + 16 + big; peak > limit {
				t.Errorf("window grew to %d bytes over a %d-byte file, want at most %d", peak, len(capture), limit)
			}
			t.Logf("%d records, %d bytes, peak window %d", read, len(capture), peak)
		})
	}
}
