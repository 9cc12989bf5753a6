package stream

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// benchCapture lazily synthesizes the shared benchmark input: an
// ~18-minute Y1 trace, which carries ≈100k APDUs.
var benchCapture struct {
	once    sync.Once
	pkts    []pcap.Packet
	raw     []byte // the capture file bytes, for segmented-reader runs
	bytes   int64
	apdus   int
	network *topology.Network
}

func loadBenchCapture(tb testing.TB) {
	benchCapture.once.Do(func() {
		cfg := scadasim.DefaultConfig(topology.Y1, 99)
		cfg.Duration = 18 * time.Minute
		sim, err := scadasim.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tr, err := sim.Run()
		if err != nil {
			tb.Fatal(err)
		}
		benchCapture.network = sim.Network()
		var buf bytes.Buffer
		if err := tr.WritePCAP(&buf); err != nil {
			tb.Fatal(err)
		}
		benchCapture.bytes = int64(buf.Len())
		benchCapture.raw = buf.Bytes()
		src, err := NewPCAPSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			tb.Fatal(err)
		}
		for {
			pkt, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				tb.Fatal(err)
			}
			benchCapture.pkts = append(benchCapture.pkts, pkt)
		}
		for _, r := range tr.Records {
			if len(r.Payload) > 0 {
				benchCapture.apdus++
			}
		}
		if benchCapture.apdus < 100000 {
			tb.Fatalf("benchmark capture has only %d APDUs, want >= 100k", benchCapture.apdus)
		}
	})
}

// memSource serves pre-decoded packets, so the benchmark measures the
// engine and analyzers, not pcap decoding.
type memSource struct {
	pkts []pcap.Packet
	i    int
}

func (s *memSource) Next() (pcap.Packet, error) {
	if s.i >= len(s.pkts) {
		return pcap.Packet{}, io.EOF
	}
	pkt := s.pkts[s.i]
	s.i++
	return pkt, nil
}

func (s *memSource) Close() error { return nil }

func runBenchEngine(tb testing.TB, workers int) core.Partial {
	e := New(Config{Workers: workers, Names: core.NamesFromTopology(benchCapture.network)})
	if err := e.Run(context.Background(), &memSource{pkts: benchCapture.pkts}); err != nil {
		tb.Fatal(err)
	}
	return e.Final()
}

func benchmarkEngine(b *testing.B, workers int) {
	loadBenchCapture(b)
	b.SetBytes(benchCapture.bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchEngine(b, workers)
	}
	b.ReportMetric(float64(benchCapture.apdus)*float64(b.N)/b.Elapsed().Seconds(), "apdus/s")
}

// runBenchEngineRaw streams the capture bytes through the raw
// (undecoded) path with the given reader fan-out, exercising the
// segment planner and the per-reader pools.
func runBenchEngineRaw(tb testing.TB, workers, readers int, reg *obs.Registry) core.Partial {
	src := NewReaderAtSource(bytes.NewReader(benchCapture.raw), benchCapture.bytes)
	e := New(Config{Workers: workers, Readers: readers, Names: core.NamesFromTopology(benchCapture.network), Registry: reg})
	if err := e.Run(context.Background(), src); err != nil {
		tb.Fatal(err)
	}
	return e.Final()
}

func benchmarkEngineRaw(b *testing.B, workers, readers int, instrumented bool) {
	loadBenchCapture(b)
	b.SetBytes(benchCapture.bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reg *obs.Registry
		if instrumented {
			reg = obs.NewRegistry()
		}
		runBenchEngineRaw(b, workers, readers, reg)
	}
	b.ReportMetric(float64(benchCapture.apdus)*float64(b.N)/b.Elapsed().Seconds(), "apdus/s")
}

func BenchmarkEngine1Shard(b *testing.B)        { benchmarkEngine(b, 1) }
func BenchmarkEngine4Shard(b *testing.B)        { benchmarkEngine(b, 4) }
func BenchmarkEngine1Shard4Reader(b *testing.B) { benchmarkEngineRaw(b, 1, 4, false) }
func BenchmarkEngine4Shard4Reader(b *testing.B) { benchmarkEngineRaw(b, 4, 4, false) }

// BenchmarkEngine2ShardInstrumented is the configuration every front
// end runs (pipeline.NewRunner always attaches a Registry): two shards
// booking into the same counter series. Shards that counted straight
// into the shared counters traded their cache lines per packet, which
// none of the uninstrumented benchmarks above can show.
func BenchmarkEngine2ShardInstrumented(b *testing.B) { benchmarkEngineRaw(b, 2, 2, true) }

// TestShardScalingNotSlower is the throughput guard: on a multi-core
// machine the sharded engine must beat one shard; on a single-CPU
// machine (GOMAXPROCS=1) sharding cannot win, so the guard bounds the
// coordination overhead instead.
func TestShardScalingNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison skipped in -short mode")
	}
	loadBenchCapture(t)

	measure := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 3; round++ {
			start := time.Now()
			p := runBenchEngine(t, workers)
			el := time.Since(start)
			if p.Packets != len(benchCapture.pkts) {
				t.Fatalf("engine(%d) processed %d packets, want %d", workers, p.Packets, len(benchCapture.pkts))
			}
			if el < best {
				best = el
			}
		}
		return best
	}

	one := measure(1)
	four := measure(4)
	t.Logf("GOMAXPROCS=%d: 1 shard %v, 4 shards %v (%.0f / %.0f apdus/s)",
		runtime.GOMAXPROCS(0), one, four,
		float64(benchCapture.apdus)/one.Seconds(), float64(benchCapture.apdus)/four.Seconds())

	if runtime.GOMAXPROCS(0) >= 2 {
		// Real parallelism available: sharding must not lose. 10%
		// headroom absorbs scheduler noise.
		if float64(four) > 1.10*float64(one) {
			t.Errorf("4-shard run slower than 1-shard: %v vs %v", four, one)
		}
	} else {
		// Single CPU: concurrency cannot pay for itself, but the
		// batching must keep coordination overhead bounded.
		if float64(four) > 1.5*float64(one) {
			t.Errorf("4-shard overhead too high on 1 CPU: %v vs %v", four, one)
		}
	}
}
