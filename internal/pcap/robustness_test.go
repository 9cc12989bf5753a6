package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestDecodeNeverPanicsOnRandomBytes: layer decoders are fed raw tap
// bytes; they must reject garbage without crashing.
func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = byte(rng.Intn(256))
		}
		_, _ = DecodeEthernet(buf)
		_, _ = DecodeIPv4(buf)
		_, _ = DecodeTCP(buf)
		_, _ = DecodePacket(LinkTypeEthernet, CaptureInfo{}, buf)
		_, _ = DecodePacket(LinkTypeRaw, CaptureInfo{}, buf)
	}
}

// TestReaderNeverPanicsOnTruncatedFiles cuts a classic and a pcapng
// capture at every byte and reads each prefix through every reader
// that opens it: the records wholly before the cut come back, and the
// read ends with a bare io.EOF only where the cut falls on a boundary
// — after the file header or a block, or after a record. A cut
// anywhere else, a record header whose body is missing included, is a
// truncation: an error that is not io.EOF, so a streamed read of the
// capture fails instead of ending clean.
func TestReaderNeverPanicsOnTruncatedFiles(t *testing.T) {
	payloads := make([][]byte, 10)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 40+i)
	}
	classic, offs := buildClassic(t, payloads)
	classicBounds := []int{24}
	for i, off := range offs {
		classicBounds = append(classicBounds, int(off)+16+len(payloads[i]))
	}

	ng := newNgWriter(binary.LittleEndian)
	ng.shb()
	ngBounds := []int{ng.buf.Len()}
	ng.idb(LinkTypeEthernet, 0)
	ngBounds = append(ngBounds, ng.buf.Len())
	for i, pl := range payloads {
		ng.epb(0, time.Unix(1700000000+int64(i), 0), 1_000_000, pl)
		ngBounds = append(ngBounds, ng.buf.Len())
	}

	streamed := func(open func(io.Reader) (PacketReader, error)) func([]byte) (PacketReader, error) {
		return func(b []byte) (PacketReader, error) { return open(bytes.NewReader(b)) }
	}
	readers := map[string]func([]byte) (PacketReader, error){
		"NewAutoReader":  streamed(NewAutoReader),
		"NewImageReader": NewImageReader,
		"PlanImage": func(b []byte) (PacketReader, error) {
			p, err := PlanImage(b, 1)
			if err != nil {
				return nil, err
			}
			return p.Open(0)
		},
	}
	captures := []struct {
		name    string
		file    []byte
		bounds  []int // where a read may end clean
		records []int // where each record ends
		open    func(io.Reader) (PacketReader, error)
	}{
		{"classic", classic, classicBounds, classicBounds[1:],
			func(r io.Reader) (PacketReader, error) { return NewReader(r) }},
		{"pcapng", ng.buf.Bytes(), ngBounds, ngBounds[2:],
			func(r io.Reader) (PacketReader, error) { return NewNgReader(r) }},
	}
	for _, c := range captures {
		readers := maps.Clone(readers)
		readers["own"] = streamed(c.open)
		for name, open := range readers {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				for cut := 0; cut <= len(c.file); cut++ {
					n := 0
					pr, err := open(c.file[:cut])
					for err == nil {
						if _, _, err = pr.ReadPacket(); err == nil {
							n++
						}
					}
					want := 0
					for want < len(c.records) && c.records[want] <= cut {
						want++
					}
					switch {
					case n != want:
						t.Fatalf("cut at %d: %d records, want %d (%v)", cut, n, want, err)
					case slices.Contains(c.bounds, cut):
						if err != io.EOF {
							t.Fatalf("cut at boundary %d: read ended %v, want io.EOF", cut, err)
						}
					case errors.Is(err, io.EOF):
						t.Fatalf("cut at %d, off every boundary: read ended %v, a clean end", cut, err)
					}
				}
			})
		}
	}
}
