package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/iec104"
	"uncharted/internal/physical"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// BenchResult is one machine-readable benchmark row, the JSON shape of
// a testing.BenchmarkResult. MBPerSec is only set for benchmarks with
// a meaningful byte throughput; CompressionRatio only for the historian
// codec rows (raw 16-byte samples vs encoded block bytes).
type BenchResult struct {
	Name             string  `json:"name"`
	N                int     `json:"n"`
	NsPerOp          float64 `json:"ns_per_op"`
	MBPerSec         float64 `json:"mb_per_sec,omitempty"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

func toBenchResult(name string, r testing.BenchmarkResult) BenchResult {
	out := BenchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.Bytes > 0 && r.T > 0 {
		out.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	return out
}

// runBench runs the pipeline micro/throughput benchmarks with
// testing.Benchmark and writes BENCH_core.json (parsers and the
// offline analyzer) and BENCH_stream.json (the sharded engine) to dir.
// When baselineDir holds previous BENCH_*.json files, an old-vs-new
// delta table is printed after each file is written.
func runBench(dir, baselineDir string, scale float64, seed int64) error {
	// Snapshot the baseline rows up front: baselineDir usually is the
	// repo root, i.e. the same files this run is about to overwrite.
	baselines := map[string]map[string]BenchResult{}
	if baselineDir != "" {
		for _, name := range benchFiles {
			if rows, err := loadBenchFile(filepath.Join(baselineDir, name)); err == nil {
				baselines[name] = rows
			}
		}
	}

	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = time.Duration(float64(cfg.Duration) * scale)
	sim, err := scadasim.New(cfg)
	if err != nil {
		return err
	}
	tr, err := sim.Run()
	if err != nil {
		return err
	}
	names := core.NamesFromTopology(sim.Network())
	var capture bytes.Buffer
	if err := tr.WritePCAP(&capture); err != nil {
		return err
	}
	// Release the generator state before any timing starts: the
	// simulator's record buffers are several times the capture size and
	// would otherwise sit in the live heap, taxing every GC cycle the
	// benchmarks trigger.
	tr = nil
	sim = nil
	runtime.GC()
	frame, err := iec104.NewI(3, 4, iec104.NewMeasurement(
		iec104.MMeTf, 5, 1201, iec104.Value{Kind: iec104.KindFloat, Float: 60.01, HasTime: true},
		iec104.CauseSpontaneous)).Marshal(iec104.Standard)
	if err != nil {
		return err
	}

	core104 := []BenchResult{
		toBenchResult("parse_apdu_standard", testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := iec104.ParseAPDU(frame, iec104.Standard); err != nil {
					b.Fatal(err)
				}
			}
		})),
		toBenchResult("tolerant_parser_frame", testing.Benchmark(func(b *testing.B) {
			tp := iec104.NewTolerantParser()
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tp.Parse("bench", frame); err != nil {
					b.Fatal(err)
				}
			}
		})),
		toBenchResult("analyzer_offline_capture", testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(capture.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := core.NewAnalyzer(names)
				if err := a.ReadPCAP(bytes.NewReader(capture.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})),
	}

	// The engine rows stream the capture itself (the RawSource pooled
	// path): the reader slices raw frames into recycled slabs and the
	// shard workers decode, so these rows measure the full streaming
	// ingest the way production runs it.
	engineBench := func(workers int) BenchResult {
		name := fmt.Sprintf("engine_%dshard", workers)
		return toBenchResult(name, testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(capture.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := stream.NewPCAPSource(bytes.NewReader(capture.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				e := stream.New(stream.Config{Workers: workers, Names: names})
				if err := e.Run(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	// The segmented row adds the parallel-ingest path: the capture is
	// planned into record-aligned segments and N readers feed the shard
	// fan-in concurrently (Config.Readers), the way cmd/profiler
	// -readers runs a finished capture.
	engineSegBench := func(workers, readers int) BenchResult {
		name := fmt.Sprintf("engine_%dshard_%dreader", workers, readers)
		return toBenchResult(name, testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(capture.Len()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := stream.NewReaderAtSource(bytes.NewReader(capture.Bytes()), int64(capture.Len()))
				e := stream.New(stream.Config{Workers: workers, Readers: readers, Names: names})
				if err := e.Run(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	stream104 := []BenchResult{engineBench(1), engineBench(2), engineBench(4), engineSegBench(4, 4)}

	hist104, err := historianBench(names, capture.Bytes())
	if err != nil {
		return err
	}

	drift104, err := driftBench(names, capture.Bytes(), scale, seed)
	if err != nil {
		return err
	}

	write := func(name string, rows []BenchResult) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchtables: wrote %s\n", path)
		printDelta(os.Stdout, name, baselines[name], rows)
		return nil
	}
	if dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := write("BENCH_core.json", core104); err != nil {
		return err
	}
	if err := write("BENCH_stream.json", stream104); err != nil {
		return err
	}
	printScaling(os.Stdout, stream104)
	if err := write("BENCH_historian.json", hist104); err != nil {
		return err
	}
	if err := write("BENCH_drift.json", drift104); err != nil {
		return err
	}
	proto, err := protocolBench(scale, seed)
	if err != nil {
		return err
	}
	if err := write("BENCH_protocol.json", proto); err != nil {
		return err
	}
	if err := checkAllocCeilings(proto); err != nil {
		return err
	}
	if line := printProtocolOverhead(proto, core104); line != "" {
		fmt.Fprintln(os.Stdout, line)
	}
	return runServiceBench(dir, baselineDir, scale, seed)
}

// driftBench builds the BENCH_drift.json rows: profile codec
// throughput (encode and decode of the full Y1 era profile, bytes per
// op = one encoded profile) and the latency of the §6 era-vs-era
// comparison over the full 58-outstation topology.
func driftBench(names map[netip.Addr]string, capture []byte, scale float64, seed int64) ([]BenchResult, error) {
	a := core.NewAnalyzer(names)
	if err := a.ReadPCAP(bytes.NewReader(capture)); err != nil {
		return nil, err
	}
	profA := drift.NewProfile("bench-y1", "bench", a.Partial(), time.Unix(0, 0).UTC())

	cfgB := scadasim.DefaultConfig(topology.Y2, seed)
	cfgB.Duration = time.Duration(float64(cfgB.Duration) * scale)
	simB, err := scadasim.New(cfgB)
	if err != nil {
		return nil, err
	}
	trB, err := simB.Run()
	if err != nil {
		return nil, err
	}
	var capB bytes.Buffer
	if err := trB.WritePCAP(&capB); err != nil {
		return nil, err
	}
	b2 := core.NewAnalyzer(core.NamesFromTopology(simB.Network()))
	if err := b2.ReadPCAP(bytes.NewReader(capB.Bytes())); err != nil {
		return nil, err
	}
	profB := drift.NewProfile("bench-y2", "bench", b2.Partial(), time.Unix(0, 0).UTC())

	encoded := profA.Encode()
	rows := []BenchResult{
		toBenchResult("profile_encode", testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(len(encoded)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profA.Encode()
			}
		})),
		toBenchResult("profile_decode", testing.Benchmark(func(b *testing.B) {
			b.SetBytes(int64(len(encoded)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := drift.DecodeProfile(encoded); err != nil {
					b.Fatal(err)
				}
			}
		})),
		toBenchResult("profile_diff_eras", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drift.Compare(profA, profB, drift.DefaultThresholds())
			}
		})),
	}
	return rows, nil
}

// deadbandSamples synthesizes a deadband-reported telemetry series —
// float32 measurands quantized to 0.01, reported on a fixed cadence —
// the shape RTUs actually emit and the one the historian's ≥8x
// compression claim is made on. It mirrors the "regular" golden case
// in internal/historian.
func deadbandSamples(n int) []physical.Sample {
	base := time.Date(2019, 6, 1, 12, 0, 0, 0, time.UTC)
	out := make([]physical.Sample, n)
	for i := range out {
		v := float64(float32(math.Round((60+0.02*math.Sin(float64(i)/20))*100) / 100))
		out[i] = physical.Sample{T: base.Add(time.Duration(i) * 4 * time.Second), V: v}
	}
	return out
}

// historianBench builds the BENCH_historian.json rows: codec
// micro-benchmarks on deadband telemetry (with the compression ratio
// against raw 16-byte samples), bulk ingest of every measurement the
// offline analyzer extracts from the capture, and the 1-shard engine
// re-run with the historian attached so its throughput cost is read
// directly against engine_1shard in BENCH_stream.json.
func historianBench(names map[netip.Addr]string, capture []byte) ([]BenchResult, error) {
	samples := deadbandSamples(512)
	raw := int64(len(samples)) * 16
	encoded := historian.EncodeBlock(samples)
	codecRatio := float64(raw) / float64(len(encoded))

	encodeRow := toBenchResult("historian_encode", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			historian.EncodeBlock(samples)
		}
	}))
	encodeRow.CompressionRatio = codecRatio
	decodeRow := toBenchResult("historian_decode", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := historian.DecodeBlock(encoded); err != nil {
				b.Fatal(err)
			}
		}
	}))
	decodeRow.CompressionRatio = codecRatio

	// Every extracted measurement from the capture, in analyzer order.
	a := core.NewAnalyzer(names)
	if err := a.ReadPCAP(bytes.NewReader(capture)); err != nil {
		return nil, err
	}
	type point struct {
		key     historian.PointKey
		typ     physical.PointType
		command bool
		samples []physical.Sample
	}
	var points []point
	var total int64
	for _, s := range a.Physical().All() {
		points = append(points, point{
			key:     historian.PointKey{Station: s.Key.Station, IOA: s.Key.IOA},
			typ:     s.Type,
			command: s.Command,
			samples: s.Samples,
		})
		total += int64(len(s.Samples))
	}

	ingest := func(dir string) (*historian.Store, error) {
		st, err := historian.Open(dir, historian.Options{})
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			for _, s := range p.samples {
				if err := st.Append(p.key, p.typ, p.command, s); err != nil {
					st.Close()
					return nil, err
				}
			}
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, err
		}
		return st, nil
	}

	// The on-disk ratio the capture actually achieves (simulator
	// measurands carry per-sample noise, so this is lower than the
	// deadband codec rows — reported as measured).
	scratch, err := os.MkdirTemp("", "histbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	st, err := ingest(filepath.Join(scratch, "ratio"))
	if err != nil {
		return nil, err
	}
	var diskSamples, diskBytes int64
	for _, pi := range st.Catalog() {
		diskSamples += pi.Samples
		diskBytes += pi.Bytes
	}
	st.Close()
	ingestRatio := 0.0
	if diskBytes > 0 {
		ingestRatio = float64(diskSamples*16) / float64(diskBytes)
	}

	n := 0
	ingestRow := toBenchResult("historian_ingest", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(total * 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(scratch, fmt.Sprintf("ingest-%d", n))
			n++
			b.StartTimer()
			st, err := ingest(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	}))
	ingestRow.CompressionRatio = ingestRatio

	engineRow := toBenchResult("engine_1shard_historian", testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(capture)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(scratch, fmt.Sprintf("engine-%d", n))
			n++
			st, err := historian.Open(dir, historian.Options{})
			if err != nil {
				b.Fatal(err)
			}
			src, err := stream.NewPCAPSource(bytes.NewReader(capture))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			e := stream.New(stream.Config{Workers: 1, Names: names, Historian: st})
			if err := e.Run(context.Background(), src); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	}))

	return []BenchResult{encodeRow, decodeRow, ingestRow, engineRow}, nil
}
