package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// twoSectionPcapng rewrites a classic capture as pcapng: its first half
// on a µs Ethernet interface, the rest after a second section header on
// an ns one, so segments planned past the middle start in a section the
// first interface table does not describe.
func twoSectionPcapng(t *testing.T, classic []byte) []byte {
	t.Helper()
	le := binary.LittleEndian
	var out []byte
	block := func(typ uint32, body []byte) {
		body = append(body, make([]byte, (4-len(body)%4)%4)...)
		total := uint32(12 + len(body))
		out = le.AppendUint32(le.AppendUint32(out, typ), total)
		out = le.AppendUint32(append(out, body...), total)
	}
	section := func(tsresol byte) {
		shb := le.AppendUint16(le.AppendUint16(le.AppendUint32(nil, 0x1A2B3C4D), 1), 0)
		block(0x0A0D0D0A, le.AppendUint64(shb, ^uint64(0)))
		idb := le.AppendUint32(le.AppendUint32(nil, uint32(pcap.LinkTypeEthernet)), 262144)
		if tsresol != 0 { // if_tsresol
			idb = append(le.AppendUint16(le.AppendUint16(idb, 9), 1), tsresol, 0, 0, 0)
		}
		block(1, idb)
	}
	r, err := pcap.NewReader(bytes.NewReader(classic))
	if err != nil {
		t.Fatal(err)
	}
	var datas [][]byte
	var cis []pcap.CaptureInfo
	for {
		data, ci, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		datas, cis = append(datas, data), append(cis, ci)
	}
	section(0)
	for i, data := range datas {
		units := uint64(cis[i].Timestamp.UnixMicro())
		if i >= len(datas)/2 {
			if i == len(datas)/2 {
				section(9)
			}
			units = uint64(cis[i].Timestamp.UnixNano())
		}
		epb := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, 0), uint32(units>>32)), uint32(units))
		epb = le.AppendUint32(le.AppendUint32(epb, uint32(len(data))), uint32(cis[i].Length))
		block(6, append(epb, data...))
	}
	return out
}

// TestMappedFileMatchesSequential: a capture file read through its
// mapping — sequentially or split across parallel segment readers —
// analyzes exactly like the same bytes read through a sequential
// PCAPSource at the same shard count, for classic pcap, for a
// two-section pcapng, and for a classic capture whose last record is
// torn, which must also fail with the sequential read's error text.
func TestMappedFileMatchesSequential(t *testing.T) {
	sim, tr := simulate(t, 7, 2*time.Minute)
	classic := tracePCAP(t, tr)
	names := core.NamesFromTopology(sim.Network())
	dir := t.TempDir()
	for _, c := range []struct {
		name    string
		capture []byte
	}{
		{"classic", classic},
		{"pcapng", twoSectionPcapng(t, classic)},
		{"torn", classic[:len(classic)-30]},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.capture, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			seq, err := NewPCAPSource(bytes.NewReader(c.capture))
			if err != nil {
				t.Fatal(err)
			}
			ref := New(Config{Workers: workers, Names: names})
			wantErr := ref.Run(context.Background(), seq)
			want := ref.Final()
			if want.Packets == 0 || (wantErr != nil) != (c.name == "torn") {
				t.Fatalf("%s: sequential read analyzed %d packets and ended %v", c.name, want.Packets, wantErr)
			}
			for _, readers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s_%dshard_%dreader", c.name, workers, readers), func(t *testing.T) {
					src, err := NewFileSource(path)
					if err != nil {
						t.Fatal(err)
					}
					defer src.Close()
					if runtime.GOOS == "linux" && !src.mapped {
						t.Fatal("the capture was read into the heap, not mapped")
					}
					e := New(Config{Workers: workers, Readers: readers, Names: names})
					if err := e.Run(context.Background(), src); fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("run ended %v, sequential read %v", err, wantErr)
					}
					if n := len(e.Status().Readers); n < min(readers, 2) {
						t.Fatalf("run used %d readers, want at least %d", n, min(readers, 2))
					}
					if got := e.Final(); !reflect.DeepEqual(want, got) {
						diffPartials(t, want, got)
						t.Error("final state differs from the sequential read")
					}
				})
			}
		}
	}
}

// TestImageNotRetained: shards decode records where they lie in the
// capture image, so anything an analyzer kept without copying would
// change with the image. After the run and Close, overwriting the image
// changes neither the final state, nor the published profile, nor the
// raw series of the one-shard analyzer. Closing twice is harmless.
func TestImageNotRetained(t *testing.T) {
	cfg := scadasim.DefaultConfig(topology.Y1, 3)
	cfg.Duration = 2 * time.Minute
	cfg.EnableModbus = true
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	capture := tracePCAP(t, tr)
	src := NewReaderAtSource(bytes.NewReader(capture), int64(len(capture)))
	img := src.img // the heap image the shards decode from
	e := New(Config{Workers: 1, ClusterK: 3, Protocols: []string{"auto"}, Names: core.NamesFromTopology(sim.Network())})
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// state renders everything the engine keeps into fresh bytes.
	state := func() [3][]byte {
		prof, err := json.Marshal(e.Profile())
		if err != nil {
			t.Fatal(err)
		}
		var series strings.Builder
		for _, s := range e.Analyzer().Physical().All() {
			fmt.Fprintf(&series, "%v %v %v %v\n", s.Key, s.Type, s.Command, s.Samples)
		}
		return [3][]byte{drift.NewProfile("img", "kept", e.Final(), goldenSavedAt).Encode(), prof, []byte(series.String())}
	}
	before := state()
	if e.Final().Packets == 0 || len(before[2]) == 0 {
		t.Fatal("nothing was analyzed")
	}
	for i := range img {
		img[i] = 0xDB
	}
	after := state()
	for i, what := range []string{"final state", "profile", "series"} {
		if !bytes.Equal(before[i], after[i]) {
			t.Errorf("%s changed when the image was overwritten", what)
		}
	}
}

// TestMappedReadCopiesNothing is the in-place read's tripwire: a warmed
// 2-reader x 2-shard run over the bench capture through NewFileSource,
// with every allocation sampled. No carrier held a slab, planning the
// segments allocated no probe window, and all the reader side
// allocated — planning, reading, routing, batch carriers — stays under
// 256 KiB (the copying path allocated about 1.3 MB of slabs alone).
func TestMappedReadCopiesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation profile skipped in -short mode")
	}
	loadBenchCapture(t)
	path := filepath.Join(t.TempDir(), "bench.pcap")
	if err := os.WriteFile(path, benchCapture.raw, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func() *Engine {
		src, err := NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		e := New(Config{Workers: 2, Readers: 2, Names: core.NamesFromTopology(benchCapture.network)})
		if err := e.Run(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		return e
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	run() // warm-up; it also runs each P's sampling countdown down to the new rate

	plan0, read0 := readerSideAllocs()
	e := run()
	plan1, read1 := readerSideAllocs()
	readers := *e.readers.Load()
	if len(readers) != 2 {
		t.Fatalf("%d readers, want 2", len(readers))
	}
	for _, rd := range readers {
		if rd.pool.most == 0 || rd.pool.fullest != 0 {
			t.Errorf("reader %d: batches of up to %d records carried up to %d slab bytes; want records and no slab", rd.r, rd.pool.most, rd.pool.fullest)
		}
	}
	plan, read := plan1-plan0, read1-read0
	t.Logf("planning allocated %d B, reading and routing %d B, for a %d-byte capture", plan, read, benchCapture.bytes)
	if plan > 16<<10 {
		t.Errorf("planning allocated %d bytes: a probe window is back", plan)
	}
	if plan+read > 256<<10 {
		t.Errorf("the reader side allocated %d bytes, want under 256 KiB", plan+read)
	}
}

// readerSideAllocs sums the bytes allocated so far, as the memory
// profile has them, under the engine's segment planning and under its
// reader goroutines.
func readerSideAllocs() (plan, read int64) {
	runtime.GC() // the profile is published by a completed cycle
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if f.Function == "uncharted/internal/stream.(*Engine).plan" {
				plan += recs[i].AllocBytes
				break
			}
			if f.Function == "uncharted/internal/stream.(*reader).run" {
				read += recs[i].AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return plan, read
}
