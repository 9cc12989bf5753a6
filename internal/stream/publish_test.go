package stream

import (
	"bytes"
	"context"
	"io"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

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

// pacedSource pauses a millisecond every `every` records, so a capture
// takes long enough to stream for many periodic snapshots to land while
// the shards are still counting.
type pacedSource struct {
	RawSource
	every, n int
}

func (s *pacedSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	if s.n++; s.n%s.every == 0 {
		time.Sleep(time.Millisecond)
	}
	return s.RawSource.NextRaw(scratch)
}

// clonePartial copies p down to its chain tables, keeping nil and empty
// lists and maps apart.
func clonePartial(p core.Partial) core.Partial {
	c := p
	c.Flows.ShortLivedDuration = slices.Clone(p.Flows.ShortLivedDuration)
	c.Compliance = slices.Clone(p.Compliance)
	c.TypeCounts = maps.Clone(p.TypeCounts)
	c.Chains = slices.Clone(p.Chains)
	for i := range c.Chains {
		c.Chains[i].Chain = c.Chains[i].Chain.Clone()
	}
	c.Features = slices.Clone(p.Features)
	c.Physical = slices.Clone(p.Physical)
	c.OtherPorts = maps.Clone(p.OtherPorts)
	c.Dialects = slices.Clone(p.Dialects)
	for i := range c.Dialects {
		c.Dialects[i].TokenCounts = maps.Clone(p.Dialects[i].TokenCounts)
	}
	c.Streams = slices.Clone(p.Streams)
	return c
}

// TestPublishedPartialsStayPut: each shard reseals into one buffer, so
// whatever the engine hands out must share nothing with it. A 2-shard
// engine streams the y1 fixture with a 1 ms snapshot period while the
// test takes snapshots of its own; every Snapshot return value, every
// OnSnapshot partial and every LastPartial is kept beside a deep copy
// taken on receipt, and after Run each still equals its copy. CI runs
// it under -race, where a shared list would also show as a race between
// a shard's next seal and the copy taken here.
func TestPublishedPartialsStayPut(t *testing.T) {
	sim, tr := simulate(t, 7, 3*time.Minute)
	capture := tracePCAP(t, tr)
	type kept struct {
		from       string
		part, copy core.Partial
	}
	const maxKept = 48 // per kind
	var hooked, taken []kept
	e := New(Config{
		Workers:       2,
		SnapshotEvery: time.Millisecond,
		Names:         core.NamesFromTopology(sim.Network()),
		// Snapshot calls the hook under its own lock, one at a time.
		OnSnapshot: func(p core.Partial, _ *Profile, _ bool) {
			if len(hooked) < maxKept {
				hooked = append(hooked, kept{"OnSnapshot", p, clonePartial(p)})
			}
		},
	})
	src := &pacedSource{RawSource: NewReaderAtSource(bytes.NewReader(capture), int64(len(capture))), every: 256}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), src) }()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(time.Millisecond):
			if len(taken) >= 2*maxKept {
				continue
			}
			p := e.Snapshot()
			taken = append(taken, kept{"Snapshot", p, clonePartial(p)})
			if p, ok := e.LastPartial(); ok {
				taken = append(taken, kept{"LastPartial", p, clonePartial(p)})
			}
		}
	}
	final := e.Final()
	moved := 0
	for i, k := range append(hooked, taken...) {
		if !reflect.DeepEqual(k.part, k.copy) {
			t.Fatalf("%s partial %d (%d packets) changed after it was handed out", k.from, i, k.copy.Packets)
		}
		if k.part.Packets > 0 && k.part.Packets < final.Packets {
			moved++
		}
	}
	if moved < 4 {
		t.Fatalf("only %d of %d kept partials predate the end of the capture: nothing was resealed under them",
			moved, len(hooked)+len(taken))
	}
	t.Logf("%d partials kept (%d from the hook), %d mid-capture", len(hooked)+len(taken), len(hooked), moved)
}

// gatedSource delivers its capture a release at a time: each value
// received on gate lets that many records through, then the source
// reports ErrNotReady once (the reader flushes every pending batch to
// the shards) and waits for the next release. Closing gate ends it.
type gatedSource struct {
	RawSource
	gate    chan int
	left    int
	flushed bool
}

func (s *gatedSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	if s.left == 0 {
		if !s.flushed {
			s.flushed = true
			return nil, pcap.CaptureInfo{}, 0, ErrNotReady
		}
		n, ok := <-s.gate
		if !ok {
			return nil, pcap.CaptureInfo{}, 0, io.EOF
		}
		s.left, s.flushed = n, false
	}
	s.left--
	return s.RawSource.NextRaw(scratch)
}

// TestSnapshotAllocCeiling: one Snapshot of a warmed, running engine
// allocates what it publishes and little else — and nothing when there
// is nothing new to publish. A 2-shard engine with session clustering
// on takes the y1 fixture through a gated source: all but the last
// (runs+1)×256 records, then 256 more before each measured tick.
//
// A changed tick — each shard reseals its partial, the seals merge,
// the profile is built and published — is 45 allocations and about
// 194 KB. It was 50 and 200 KB while every seal sorted its
// connections and sessions into fresh lists, even when none was new;
// 178 and 257 KB while every tick built each
// connection's label again and each profile build made its own
// clustering, ranking and Markov scratch (and a snapshot journal event
// with no journal); 199 and 378 KB while each seal built a fresh copy
// of its shard's lists, which the merge copied again and dropped; 1 871
// allocations while the profile fitted a K = 2..8 sweep and a PCA it
// threw away, merges boxed every row behind a map and each seal cloned
// every chain three allocations at a time. The object ceiling is the
// reading plus about 7 %, the byte ceiling 10 % over it. Under -race,
// which grows slices differently, a tick is 53 allocations: only the
// object count is held, against that reading plus the same margin.
//
// An idle tick — no shard consumed a record since the last publish —
// publishes nothing: the same Profile, the same seq, no OnSnapshot call
// and no new last-publish time, within one allocation and 1 KB.
func TestSnapshotAllocCeiling(t *testing.T) {
	ceiling, byteCeiling := uint64(48), uint64(214_000)
	if raceBuild {
		ceiling = 57
	}
	const runs, slice = 20, 256
	sim, tr := simulate(t, 7, 3*time.Minute)
	capture := tracePCAP(t, tr)

	var hooked atomic.Int64
	e := New(Config{
		Workers: 2, Names: core.NamesFromTopology(sim.Network()), ClusterK: 5, ClusterSeed: 1202,
		PollInterval: time.Millisecond,
		OnSnapshot:   func(core.Partial, *Profile, bool) { hooked.Add(1) },
	})
	src := &gatedSource{
		RawSource: NewReaderAtSource(bytes.NewReader(capture), int64(len(capture))),
		gate:      make(chan int),
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), src) }()
	defer func() {
		close(src.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}()

	fed := func() (per []int64, total int64) {
		for _, sh := range e.shards {
			per = append(per, sh.fed.Load())
			total += per[len(per)-1]
		}
		return per, total
	}
	var released int64
	release := func(t *testing.T, n int) {
		t.Helper()
		released += int64(n)
		src.gate <- n
		deadline := time.Now().Add(30 * time.Second)
		for _, total := fed(); total < released; _, total = fed() {
			if time.Now().After(deadline) {
				t.Fatalf("shards consumed %d of the %d records released", total, released)
			}
			time.Sleep(time.Millisecond)
		}
	}
	release(t, len(tr.Records)-(runs+1)*slice)
	e.Snapshot()
	if prof := e.Profile(); prof.Clusters == nil || len(prof.Physical) == 0 || len(prof.Markov.Connections) == 0 {
		t.Fatalf("warmed profile is missing sections: clusters %v, %d series, %d connections",
			prof.Clusters, len(prof.Physical), len(prof.Markov.Connections))
	}

	// testing.AllocsPerRun's measurement, reading bytes as well, around
	// each Snapshot only: one warm-up tick, then the average over runs.
	// The shards seal on their own goroutines, which the process-wide
	// counters include.
	var before, after runtime.MemStats
	t.Run("changed", func(t *testing.T) {
		var allocs, bytesPer uint64
		for i := 0; i <= runs; i++ {
			was, _ := fed()
			release(t, slice)
			now, _ := fed()
			for sh := range now {
				if now[sh] == was[sh] {
					t.Fatalf("round %d: shard %d was fed nothing, so it would not reseal", i, sh)
				}
			}
			seq := e.Profile().Seq
			runtime.ReadMemStats(&before)
			e.Snapshot()
			runtime.ReadMemStats(&after)
			if got := e.Profile().Seq; got != seq+1 {
				t.Fatalf("round %d: a tick after new records left seq %d at %d", i, seq, got)
			}
			if i > 0 {
				allocs += after.Mallocs - before.Mallocs
				bytesPer += after.TotalAlloc - before.TotalAlloc
			}
		}
		allocs, bytesPer = allocs/runs, bytesPer/runs
		t.Logf("one changed Snapshot: %d allocations (ceiling %d), %d bytes (ceiling %d)", allocs, ceiling, bytesPer, byteCeiling)
		if allocs > ceiling {
			t.Errorf("one changed Snapshot allocates %d objects, ceiling %d", allocs, ceiling)
		}
		if bytesPer > byteCeiling && !raceBuild {
			t.Errorf("one changed Snapshot allocates %d bytes, ceiling %d", bytesPer, byteCeiling)
		}
	})

	t.Run("idle", func(t *testing.T) {
		const idleAllocs, idleBytes = 1, 1 << 10
		prof, calls, status := e.Profile(), hooked.Load(), e.Status()
		e.Snapshot()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			e.Snapshot()
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("one idle Snapshot: %d allocations (ceiling %d), %d bytes (ceiling %d)", allocs, idleAllocs, bytesPer, idleBytes)
		if allocs > idleAllocs || bytesPer > idleBytes {
			t.Errorf("one idle Snapshot allocates %d objects and %d bytes, ceilings %d and %d", allocs, bytesPer, idleAllocs, idleBytes)
		}
		if got := e.Profile(); got != prof {
			t.Errorf("idle ticks replaced the profile: seq %d became %d", prof.Seq, got.Seq)
		}
		if got := hooked.Load(); got != calls {
			t.Errorf("idle ticks called OnSnapshot %d times", got-calls)
		}
		st := e.Status()
		if st.LastPublish == nil || !st.LastPublish.Equal(*status.LastPublish) {
			t.Errorf("idle ticks moved the last publish from %v to %v", status.LastPublish, st.LastPublish)
		}
		if st.LastTick == nil || !st.LastTick.After(*status.LastTick) {
			t.Errorf("idle ticks left the last check at %v (was %v)", st.LastTick, status.LastTick)
		}
	})
}

// TestPublishedProfilesStayPut: the engine builds its profiles in one
// workspace it reuses, so no published Profile may point into it.
// A 2-shard engine with session clustering on takes the y1 fixture
// through a gated source a tenth at a time, publishing after each
// release; each Profile is kept with its JSON rendering taken on
// receipt, and once Run has published the final one, each renders as
// it did — Markov lists, cluster sizes and outliers, ranked physical
// rows and all — and as a fresh workspace builds it from its partial.
func TestPublishedProfilesStayPut(t *testing.T) {
	sim, tr := simulate(t, 7, 3*time.Minute)
	capture := tracePCAP(t, tr)
	e := New(Config{Workers: 2, Names: core.NamesFromTopology(sim.Network()), ClusterK: 5, ClusterSeed: 1202})
	src := &gatedSource{
		RawSource: NewReaderAtSource(bytes.NewReader(capture), int64(len(capture))),
		gate:      make(chan int),
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background(), src) }()

	type kept struct {
		prof *Profile
		json []byte
	}
	render := func(p *Profile) []byte {
		b, err := p.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var profs []kept
	var parts []core.Partial
	const steps = 10
	for i, released := 0, 0; i < steps; i++ {
		n := len(tr.Records) / steps
		released += n
		src.gate <- n
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			var fed int64
			for _, sh := range e.shards {
				fed += sh.fed.Load()
			}
			if fed >= int64(released) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shards consumed %d of the %d records released", fed, released)
			}
		}
		parts = append(parts, e.Snapshot())
		p := e.Profile()
		profs = append(profs, kept{p, render(p)})
	}
	close(src.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := e.Profile()
	if final == profs[len(profs)-1].prof {
		t.Fatal("Run published no final profile")
	}
	moved := map[string]bool{}
	for i, k := range profs {
		if got := render(k.prof); !bytes.Equal(got, k.json) {
			t.Fatalf("profile seq %d changed after later publishes", k.prof.Seq)
		}
		fresh := BuildProfile(parts[i], k.prof.Seq, 5, 1202)
		fresh.Workers = k.prof.Workers
		if !bytes.Equal(render(fresh), k.json) {
			t.Fatalf("profile seq %d differs from a fresh build of its partial", k.prof.Seq)
		}
		if i == 0 {
			continue
		}
		prev := profs[i-1].prof
		moved["markov"] = moved["markov"] || !slices.Equal(k.prof.Markov.Square, prev.Markov.Square) ||
			!slices.Equal(k.prof.Markov.Ellipse, prev.Markov.Ellipse) || !slices.Equal(k.prof.Markov.Point11, prev.Markov.Point11)
		moved["clusters"] = moved["clusters"] || k.prof.Clusters != nil && prev.Clusters != nil &&
			(!slices.Equal(k.prof.Clusters.Sizes, prev.Clusters.Sizes) || !slices.Equal(k.prof.Clusters.Outliers, prev.Clusters.Outliers))
		moved["physical"] = moved["physical"] || !slices.Equal(k.prof.Physical, prev.Physical)
	}
	for _, list := range []string{"markov", "clusters", "physical"} {
		if !moved[list] {
			t.Errorf("the %s lists never changed between publishes: a leak into them would not show", list)
		}
	}
}
