package stream

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// heldSource delivers its capture, then reports ErrNotReady once (the
// reader flushes every pending batch to the shards) and keeps the
// stream open until release is closed: an engine that has analyzed the
// whole capture and is still running, so Snapshot seals and merges.
type heldSource struct {
	RawSource
	release chan struct{}
	drained bool
}

func (s *heldSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	if !s.drained {
		data, ci, link, err := s.RawSource.NextRaw(scratch)
		if err != io.EOF {
			return data, ci, link, err
		}
		s.drained = true
		return nil, pcap.CaptureInfo{}, 0, ErrNotReady
	}
	<-s.release
	return nil, pcap.CaptureInfo{}, 0, io.EOF
}

// TestProfileClustersMatchReport: the profile's clusters are the fit,
// not the full report, and must not differ from the report's fields
// for it. On the y1, y2 and mixed-protocol fixtures, for k in {2, 5, 8}
// and three seeds, BuildProfile's Clusters equal ClusterFeatures' K,
// Sizes, Sil and Outliers exactly; and where the report fails (one
// session, more clusters than sessions, k = 1) the profile has none.
func TestProfileClustersMatchReport(t *testing.T) {
	mixed := scadasim.DefaultConfig(topology.Y1, 7)
	mixed.Duration = 3 * time.Minute
	mixed.EnableModbus = true
	fixtures := []struct {
		name      string
		cfg       scadasim.Config
		protocols []string
	}{
		{"y1", scadasim.DefaultConfig(topology.Y1, 7), nil},
		{"y2", scadasim.DefaultConfig(topology.Y2, 1), nil},
		{"mixed", mixed, []string{"auto"}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			fx.cfg.Duration = 3 * time.Minute
			sim, err := scadasim.New(fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewPCAPSource(bytes.NewReader(tracePCAP(t, tr)))
			if err != nil {
				t.Fatal(err)
			}
			e := New(Config{Workers: 2, Names: core.NamesFromTopology(sim.Network()), Protocols: fx.protocols})
			if err := e.Run(context.Background(), src); err != nil {
				t.Fatal(err)
			}
			p := e.Final()
			if len(p.Features) < 8 {
				t.Fatalf("%d sessions: too few to fit k = 8", len(p.Features))
			}
			check := func(p core.Partial, k int, seed int64) {
				t.Helper()
				got := BuildProfile(p, 1, k, seed).Clusters
				rep, err := core.ClusterFeatures(p.Features, k, seed)
				if err != nil {
					if got != nil {
						t.Errorf("%d sessions, k=%d seed=%d: the report fails (%v) but the profile has clusters %+v",
							len(p.Features), k, seed, err, got)
					}
					return
				}
				want := &ClusterProfile{K: rep.K, Sizes: rep.Sizes, Silhouette: rep.Sil, Outliers: rep.Outliers}
				if !reflect.DeepEqual(got, want) || math.Float64bits(got.Silhouette) != math.Float64bits(want.Silhouette) {
					t.Errorf("k=%d seed=%d: profile clusters %+v, report %+v", k, seed, got, want)
				}
			}
			for _, k := range []int{2, 5, 8} {
				for _, seed := range []int64{1, 42, 1202} {
					check(p, k, seed)
				}
			}
			one, few := p, p
			one.Features = p.Features[:1]
			few.Features = p.Features[:3]
			for _, c := range []struct {
				p core.Partial
				k int
			}{{one, 2}, {one, 1}, {few, 5}, {p, 1}} {
				if BuildProfile(c.p, 1, c.k, 1).Clusters != nil {
					t.Errorf("%d sessions, k=%d: profile has clusters", len(c.p.Features), c.k)
				}
				check(c.p, c.k, 1)
			}
		})
	}
}

// TestSnapshotAllocCeiling: one Snapshot of a warmed, running engine
// — each shard seals its partial, the seals merge, the profile is built
// and published — allocates what it publishes and little else. Over the
// y1 fixture at two shards with session clustering on, a tick is 199
// allocations; it was 1 871 while the profile fitted a K = 2..8 sweep
// and a PCA it threw away, merges boxed every row behind a map and each
// seal cloned every chain three allocations at a time. The ceiling is
// 199 plus 10 %.
func TestSnapshotAllocCeiling(t *testing.T) {
	const ceiling = 219
	sim, tr := simulate(t, 7, 3*time.Minute)
	capture := tracePCAP(t, tr)
	names := core.NamesFromTopology(sim.Network())
	want := offlinePartial(t, sim, capture).Packets

	e := New(Config{Workers: 2, Names: names, ClusterK: 5, ClusterSeed: 1202})
	src := &heldSource{
		RawSource: NewReaderAtSource(bytes.NewReader(capture), int64(len(capture))),
		release:   make(chan struct{}),
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), src) }()
	defer func() {
		close(src.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for e.Snapshot().Packets < want {
		if time.Now().After(deadline) {
			t.Fatalf("engine never caught up to the capture's %d packets", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if prof := e.Profile(); prof.Clusters == nil || len(prof.Physical) == 0 || len(prof.Markov.Connections) == 0 {
		t.Fatalf("warmed profile is missing sections: clusters %v, %d series, %d connections",
			prof.Clusters, len(prof.Physical), len(prof.Markov.Connections))
	}
	allocs := testing.AllocsPerRun(20, func() { e.Snapshot() })
	t.Logf("one Snapshot: %.0f allocations (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("one Snapshot allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
