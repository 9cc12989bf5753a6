package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// runSegmented streams a capture through an engine with the given
// reader fan-out over a seekable source and returns the final state
// plus the engine (for status assertions).
func runSegmented(t testing.TB, capture []byte, cfg Config) (*Engine, core.Partial) {
	t.Helper()
	src := NewReaderAtSource(bytes.NewReader(capture), int64(len(capture)))
	e := New(cfg)
	if err := e.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	return e, e.Final()
}

// frontierCancel wraps a followed capture that is already complete on
// disk: the first ErrNotReady means every record has been served (and
// makes the read loop flush), the second cancels the run with nothing
// left in flight.
type frontierCancel struct {
	RawSource
	cancel   context.CancelFunc
	frontier int
}

func (s *frontierCancel) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	data, ci, link, err := s.RawSource.NextRaw(scratch)
	if errors.Is(err, ErrNotReady) {
		if s.frontier++; s.frontier == 2 {
			s.cancel()
		}
	}
	return data, ci, link, err
}

// TestIngestPathEquivalence is the single read loop's correctness pin:
// whatever face a capture is read through — a decoded-only Source, a
// sequential RawSource, a seekable FileSource split across 1, 2 or 4
// segment readers, or a finished file behind FollowSource cancelled at
// the write frontier — the engine's final Partial must DeepEqual the
// sequential raw read at the same shard count. The in-order fan-in
// reproduces the sequential packet order per shard exactly, so even
// order-sensitive state (Markov token chains, dialect pinning moments,
// flow lifetimes) is identical. Checked on the deterministic IEC 104
// capture and on a mixed-protocol capture in auto-detect mode, at 1
// and 4 shards.
func TestIngestPathEquivalence(t *testing.T) {
	iecSim, iecTr := simulate(t, 7, 3*time.Minute)
	iecCapture := tracePCAP(t, iecTr)

	mixCfg := scadasim.DefaultConfig(topology.Y1, 7)
	mixCfg.Duration = 3 * time.Minute
	mixCfg.EnableModbus = true
	mixSim, err := scadasim.New(mixCfg)
	if err != nil {
		t.Fatal(err)
	}
	mixTr, err := mixSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	mixCapture := tracePCAP(t, mixTr)

	captures := []struct {
		name    string
		capture []byte
		cfg     Config
	}{
		{"iec104", iecCapture, Config{Names: core.NamesFromTopology(iecSim.Network())}},
		{"mixed", mixCapture, Config{Names: core.NamesFromTopology(mixSim.Network()), Protocols: []string{"auto"}}},
	}

	sequential := func(t *testing.T, capture []byte) Source {
		src, err := NewPCAPSource(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	seekable := func(_ *testing.T, capture []byte) Source {
		return NewReaderAtSource(bytes.NewReader(capture), int64(len(capture)))
	}
	paths := []struct {
		name    string
		readers int // Config.Readers
		minRead int // readers the run must report
		follow  bool
		open    func(t *testing.T, capture []byte) Source
	}{
		{name: "decoded", readers: 1, minRead: 1, open: func(t *testing.T, capture []byte) Source {
			return decodedOnly{sequential(t, capture)}
		}},
		{name: "file-1reader", readers: 1, minRead: 1, open: seekable},
		{name: "file-2readers", readers: 2, minRead: 2, open: seekable},
		{name: "file-4readers", readers: 4, minRead: 2, open: seekable},
		// Readers is inert on a source that cannot be segmented.
		{name: "follow", readers: 4, minRead: 1, follow: true, open: func(t *testing.T, capture []byte) Source {
			path := filepath.Join(t.TempDir(), "done.pcap")
			if err := os.WriteFile(path, capture, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := NewFollowSource(path)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
	}

	for _, tc := range captures {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			cfg.PollInterval = time.Millisecond
			ref := New(cfg)
			if err := ref.Run(context.Background(), sequential(t, tc.capture)); err != nil {
				t.Fatal(err)
			}
			want := ref.Final()
			if want.Packets == 0 {
				t.Fatal("capture produced no packets")
			}
			wantEnc := drift.NewProfile("seg", "equiv", want, goldenSavedAt).Encode()

			for _, path := range paths {
				t.Run(fmt.Sprintf("%s_%dshard_%s", tc.name, workers, path.name), func(t *testing.T) {
					cfg := cfg
					cfg.Readers = path.readers
					src := path.open(t, tc.capture)
					defer src.Close()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					var wantErr error
					if path.follow {
						src = &frontierCancel{RawSource: src.(RawSource), cancel: cancel}
						wantErr = context.Canceled
					}
					e := New(cfg)
					if err := e.Run(ctx, src); err != wantErr {
						t.Fatalf("Run returned %v, want %v", err, wantErr)
					}
					if n := len(e.Status().Readers); n < path.minRead {
						t.Fatalf("run used %d readers, want at least %d", n, path.minRead)
					}
					got := e.Final()
					if !reflect.DeepEqual(want, got) {
						diffPartials(t, want, got)
						t.Errorf("final state differs from the sequential raw read at %d shards", workers)
					}
					// Belt and braces: the canonical drift encoding must be
					// byte-identical too (the property the golden fixtures pin).
					if ge := drift.NewProfile("seg", "equiv", got, goldenSavedAt).Encode(); !bytes.Equal(wantEnc, ge) {
						t.Errorf("drift encodings differ (%d vs %d bytes)", len(wantEnc), len(ge))
					}
				})
			}
		}
	}
}

// TestSegmentedReaderStatus pins the per-reader progress surface: a
// finished segmented run reports every reader done, with byte ranges
// that tile the capture and byte counts that sum to the record bytes.
func TestSegmentedReaderStatus(t *testing.T) {
	sim, tr := simulate(t, 11, 2*time.Minute)
	capture := tracePCAP(t, tr)
	e, part := runSegmented(t, capture, Config{
		Workers: 2,
		Readers: 4,
		Names:   core.NamesFromTopology(sim.Network()),
	})
	if part.Packets == 0 {
		t.Fatal("no packets analyzed")
	}
	rs := e.Status().Readers
	if len(rs) < 2 {
		t.Fatalf("got %d readers, want >= 2", len(rs))
	}
	next := rs[0].SegmentOff
	for _, r := range rs {
		if !r.Done {
			t.Errorf("reader %d not done after Run returned", r.ID)
		}
		if r.SegmentOff != next {
			t.Errorf("reader %d segment starts at %d, want %d (segments must tile)", r.ID, r.SegmentOff, next)
		}
		if r.BytesRead <= 0 || r.BytesRead > r.SegmentSize {
			t.Errorf("reader %d read %d bytes of a %d-byte segment", r.ID, r.BytesRead, r.SegmentSize)
		}
		next = r.SegmentOff + r.SegmentSize
	}
	if next != int64(len(capture)) {
		t.Errorf("segments end at %d, capture is %d bytes", next, len(capture))
	}
}

// TestHeaderCutFailsRun: a finished capture cut right after its last
// record's header fails the run with io.ErrUnexpectedEOF, read whole
// and split across two readers alike: a record whose body is missing
// is damage, not the clean end of a capture.
func TestHeaderCutFailsRun(t *testing.T) {
	_, tr := simulate(t, 7, 30*time.Second)
	capture := tracePCAP(t, tr)
	pr, err := pcap.NewImageReader(capture)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for {
		hdr, _, _, _, err := pr.(inPlace).NextAt()
		if err != nil {
			break
		}
		last = hdr
	}
	cut := capture[:last+16]
	for _, readers := range []int{1, 2} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			e := New(Config{Workers: 2, Readers: readers})
			err := e.Run(context.Background(), NewReaderAtSource(bytes.NewReader(cut), int64(len(cut))))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("Run returned %v, want an error wrapping %v", err, io.ErrUnexpectedEOF)
			}
			if n := len(e.Status().Readers); n != readers {
				t.Errorf("run used %d readers, want %d", n, readers)
			}
		})
	}
}

// TestEmptyCaptureFailsRun: a capture file always starts with a
// header, so an empty one was cut short, not read to a clean end. Read
// whole and split across two readers, the run fails with
// io.ErrUnexpectedEOF.
func TestEmptyCaptureFailsRun(t *testing.T) {
	for _, readers := range []int{1, 2} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			e := New(Config{Workers: 2, Readers: readers})
			err := e.Run(context.Background(), NewReaderAtSource(bytes.NewReader(nil), 0))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("Run returned %v, want an error wrapping %v", err, io.ErrUnexpectedEOF)
			}
		})
	}
}

// TestSegmentedAllocsGuard is the alloc-regression tripwire: per-MB
// allocations at 4 shards must not exceed the 1-shard figure by more
// than 10%. The per-reader free-list pools exist precisely so that
// adding shards (more consumers recycling into the producer's pools)
// does not turn slab reuse into fresh allocation; this guard is
// hardware-independent — it counts allocations, not time.
func TestSegmentedAllocsGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement skipped in -short mode")
	}
	// The big bench capture, so per-run fixed costs (engine setup, the
	// four analyzers' empty maps) amortize out and the figure reflects
	// the steady-state hot path.
	loadBenchCapture(t)
	mb := float64(benchCapture.bytes) / (1 << 20)

	perMB := func(workers int) float64 {
		allocs := testing.AllocsPerRun(3, func() {
			if p := runBenchEngineRaw(t, workers, 4, nil); p.Packets == 0 {
				t.Fatal("no packets analyzed")
			}
		})
		return allocs / mb
	}

	one := perMB(1)
	four := perMB(4)
	t.Logf("GOMAXPROCS=%d: allocs/MB 1 shard %.0f, 4 shards %.0f (%.2fx)",
		runtime.GOMAXPROCS(0), one, four, four/one)
	if four > 1.10*one {
		t.Errorf("4-shard run allocates %.0f/MB, more than 10%% over the 1-shard %.0f/MB", four, one)
	}
}

// TestReaderScalingSmoke is the CI scaling check over the raw
// segmented path: 4 shards with 4 readers against 1 shard with 4
// readers. It fails only on a genuine inversion — the parallel
// configuration falling below 0.9x the single-shard throughput — so
// it stays meaningful on small CI machines where near-linear speedups
// cannot manifest.
func TestReaderScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison skipped in -short mode")
	}
	loadBenchCapture(t)

	one, four := scalingRounds(t, func(workers int) core.Partial { return runBenchEngineRaw(t, workers, 4, nil) })
	mbps := func(d time.Duration) float64 {
		return float64(benchCapture.bytes) / (1 << 20) / d.Seconds()
	}
	t.Logf("GOMAXPROCS=%d: 4 readers, 1 shard %v (%.1f MB/s); 4 shards %v (%.1f MB/s); ratio %.2fx",
		runtime.GOMAXPROCS(0), one, mbps(one), four, mbps(four), float64(one)/float64(four))
	if float64(four) > float64(one)/0.9 {
		t.Errorf("scaling inversion: 4 shards %v is below 0.9x the 1-shard throughput (%v)", four, one)
	}
}
