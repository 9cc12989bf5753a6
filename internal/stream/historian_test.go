package stream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/historian"
	"uncharted/internal/obs"
)

// TestHistorianFlushOnShutdown covers the -follow + SIGINT path: an
// engine recording into the historian is canceled mid-tail; the drain
// must flush and fsync every buffered sample, and a reopened store
// must carry the complete history with zero torn bytes.
func TestHistorianFlushOnShutdown(t *testing.T) {
	sim, tr := simulate(t, 16, 90*time.Second)
	capture := tracePCAP(t, tr)
	want := offlinePartial(t, sim, capture)
	memStore := offlineAnalyzer(t, sim, capture).Physical()

	path := filepath.Join(t.TempDir(), "grow.pcap")
	if err := os.WriteFile(path, capture, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewFollowSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	histDir := t.TempDir()
	hist, err := historian.Open(histDir, historian.Options{FlushSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{
		Workers:         2,
		PollInterval:    time.Millisecond,
		Names:           core.NamesFromTopology(sim.Network()),
		Historian:       hist,
		MaxPointSamples: 10, // bounded shard memory: disk holds the full history
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx, src) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if p := e.Snapshot(); p.Packets == want.Packets {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine saw %d packets, want %d", e.Snapshot().Packets, want.Packets)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: a clean drain leaves the active segment resumable.
	reg := obs.NewRegistry()
	hist2, err := historian.Open(histDir, historian.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer hist2.Close()
	if torn := reg.Counter(historian.MetricTornBytes).Value(); torn != 0 {
		t.Fatalf("clean shutdown left %d torn bytes", torn)
	}

	// Every sample the offline analyzer extracted must be on disk —
	// even though each shard retained at most 10 per series in memory.
	capExceeded := false
	for _, s := range memStore.All() {
		key := historian.PointKey{Station: s.Key.Station, IOA: s.Key.IOA}
		got, err := hist2.Query(key, time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(s.Samples) {
			t.Fatalf("%s: historian has %d samples after shutdown, offline store has %d",
				s.Key, len(got), len(s.Samples))
		}
		if len(got) > 10 {
			capExceeded = true
		}
	}
	if !capExceeded {
		t.Fatal("no series outgrew the in-memory cap; the durability check is vacuous")
	}
}

// TestHistorianWriteErrorFailsRun: a store that refuses every append
// fails Run. Each shard's recorder stops at its first failed append and
// the final sync fails too, so the run lost history and must say so.
func TestHistorianWriteErrorFailsRun(t *testing.T) {
	_, tr := simulate(t, 16, 30*time.Second)
	hist, err := historian.Open(t.TempDir(), historian.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, Historian: hist})
	if err := e.Run(context.Background(), NewRecordSource(tr.Records, 0)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Run returned %v, want an error wrapping %v", err, os.ErrClosed)
	}
	if p := e.Snapshot(); p.Packets == 0 {
		t.Fatal("engine analyzed nothing; the check is vacuous")
	}
}
