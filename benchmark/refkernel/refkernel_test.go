package refkernel

import (
	"encoding/binary"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// The reference kernel is the benchmark's yardstick: it must not move
// when the system under test does, so it may import nothing of it.
func TestImportsNothingFromTheSystem(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "refkernel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if strings.HasPrefix(path, "uncharted") || strings.Contains(path, ".") {
			t.Errorf("refkernel imports %q; only the standard library is allowed", path)
		}
	}
}

// image builds a classic pcap with n TCP records over a few flows.
func image(n int) []byte {
	data := make([]byte, pcapFileHeader)
	for i := 0; i < n; i++ {
		frame := make([]byte, tcpPayloadOff+20+i%7)
		frame[23] = 6
		frame[26+3] = byte(i % 5) // source address
		binary.BigEndian.PutUint16(frame[34:], uint16(2404))
		binary.BigEndian.PutUint32(frame[38:], uint32(i*100))
		for j := tcpPayloadOff; j < len(frame); j++ {
			frame[j] = byte(i + j)
		}
		var hdr [pcapRecordHeader]byte
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(frame)))
		data = append(append(data, hdr[:]...), frame...)
	}
	return data
}

func TestRunIsDeterministicAndTimed(t *testing.T) {
	data := image(1000)
	for _, workers := range []int{1, 2} {
		k := New(data, workers, 0)
		if k.Records() != 1000 {
			t.Fatalf("indexed %d records, want 1000", k.Records())
		}
		d1, cpu := k.Run()
		d2, _ := k.Run()
		if d1 != d2 || d1 == 0 {
			t.Errorf("workers=%d: digests %x and %x, want equal and non-zero", workers, d1, d2)
		}
		if cpu <= 0 {
			t.Errorf("workers=%d: CPU time %v, want positive", workers, cpu)
		}
	}
	if got := New(append(data, 1, 2, 3), 1, 10).Records(); got != 10 {
		t.Errorf("maxRecords=10 indexed %d records", got)
	}
}
