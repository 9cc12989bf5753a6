package historian

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/physical"
)

// goldenOptions are goldenWorkload's store settings: 16 KiB segments,
// which also bound the journal, batched fsyncs (4 KiB) and 64-sample
// blocks.
var goldenOptions = Options{MaxSegmentBytes: 16 << 10, FsyncEveryBytes: 4 << 10, FlushSamples: 64}

// goldenWorkload drives a store the way a live engine does — frames
// through a Recorder, the odd single Append, a Sync per "snapshot"
// unless sync is false — with a deterministic script that crosses every
// decision the write path takes: segment rotations in the middle of a
// flush's batch, journal resets, batched fsyncs, one point that reaches
// FlushSamples between Syncs, late samples that force a sort,
// command-direction series and two stations sharing IOAs.
func goldenWorkload(t testing.TB, dir string, opts Options, sync bool) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st)
	rng := rand.New(rand.NewSource(17))
	base := time.Date(2019, 3, 20, 8, 0, 0, 0, time.UTC)
	stations := []string{"O1", "O2", "10.0.5.9"}
	for round := 0; round < 40; round++ {
		for f := 0; f < 30; f++ {
			at := base.Add(time.Duration(round*30+f) * 250 * time.Millisecond)
			asdu := &iec104.ASDU{Type: iec104.MMeNc}
			ev := core.FrameEvent{Time: at, Outstation: stations[f%len(stations)], FromOutstation: true, ASDU: asdu}
			if f%10 == 9 {
				asdu.Type, ev.FromOutstation = iec104.CSeNc, false
			}
			for o := 0; o < 1+f%8; o++ {
				obj := iec104.InfoObject{IOA: uint32(1000 + 10*(f%4) + o),
					Value: iec104.Value{Kind: iec104.KindFloat, Float: float64(float32(60 + rng.NormFloat64()))}}
				if o == 3 { // a CP56 time tag that runs behind the capture clock
					obj.Value.HasTime = true
					obj.Value.Time.Time = at.Add(-time.Duration(rng.Intn(3000)) * time.Millisecond)
				}
				asdu.Objects = append(asdu.Objects, obj)
			}
			rec.ObserveFrame(ev)
		}
		// One chatty point outruns the Sync cadence and flushes at
		// FlushSamples on its own.
		for i := 0; i < 25; i++ {
			at := base.Add(time.Duration(round*25+i) * 40 * time.Millisecond)
			if err := st.Append(PointKey{Station: "O2", IOA: 7001}, physical.IEC104Type(iec104.MMeTf), false,
				physical.Sample{T: at, V: 118.5 + float64(i%3)}); err != nil {
				t.Fatal(err)
			}
		}
		if !sync {
			continue
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentDigest lists the segment files under dir — name, size and
// SHA-256 of each.
func segmentDigest(t *testing.T, dir string) (string, int) {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %d %x\n", name, len(data), sha256.Sum256(data))
	}
	return sb.String(), len(names)
}

// TestSegmentBytesGolden pins the segment files goldenWorkload leaves
// behind. Batching changes how bytes reach the file, never which bytes:
// block boundaries, record encoding, rotation points and seal indexes
// are all fixed by the script. The fixture was regenerated when Sync
// began journaling instead of cutting every buffer into a block: blocks
// now fill to FlushSamples or end at a journal reset, and the script's
// files went from 14 segments (332 343 B) to 5 (103 141 B). Regenerate
// (only for a deliberate format or block-boundary change) with:
//
//	go test ./internal/historian -run TestSegmentBytesGolden -update
func TestSegmentBytesGolden(t *testing.T) {
	dir := t.TempDir()
	goldenWorkload(t, dir, goldenOptions, true)
	got, n := segmentDigest(t, dir)
	if n < 4 {
		t.Fatalf("workload produced %d segments; it must rotate several times", n)
	}
	path := filepath.Join("testdata", "segments.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s:\n%s", path, got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("segment files differ from the golden\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSegmentBytesIndependentOfSync runs the golden script in a segment
// large enough that neither it nor the journal is ever reset, once with
// a Sync per round and once with none: the segment files are
// byte-identical, because a Sync journals and never cuts a block.
func TestSegmentBytesIndependentOfSync(t *testing.T) {
	opts := goldenOptions
	opts.MaxSegmentBytes = 64 << 20
	synced, never := t.TempDir(), t.TempDir()
	goldenWorkload(t, synced, opts, true)
	goldenWorkload(t, never, opts, false)
	a, _ := segmentDigest(t, synced)
	b, _ := segmentDigest(t, never)
	if a != b {
		t.Errorf("segment files depend on the Sync cadence\nsynced every round:\n%s\nnever synced:\n%s", a, b)
	}
}

// TestAppendAndSyncAllocs is the write path's allocation tripwire. On
// points the store already knows, once flushes have recycled their
// chunks, appending allocates nothing — through Append or through a
// Recorder frame of eight objects. A Sync of N points writes one
// journal frame and no block, and allocates O(1): no sort closure, no
// per-record buffer, one write for the lot. A point that reaches
// FlushSamples writes exactly one block.
func TestAppendAndSyncAllocs(t *testing.T) {
	const (
		nPoints = 256
		flushAt = 512
	)
	st, err := Open(t.TempDir(), Options{FlushSamples: flushAt})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Date(2019, 3, 20, 8, 0, 0, 0, time.UTC)
	typ := physical.IEC104Type(iec104.MMeNc)
	keys := make([]PointKey, nPoints)
	for i := range keys {
		keys[i] = PointKey{Station: fmt.Sprintf("O%d", i%4), IOA: uint32(1000 + i/4)}
	}
	tick := 0
	fill := func(perPoint int) {
		for i := 0; i < perPoint; i++ {
			tick++
			at := base.Add(time.Duration(tick) * time.Second)
			for _, key := range keys {
				if err := st.Append(key, typ, false, physical.Sample{T: at, V: 60 + float64(tick%7)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	blocks := func() (n int) {
		for _, key := range keys {
			n += len(st.active.points[key].Blocks)
		}
		return n
	}
	// Two flushes of every point: the free list holds their chunks, every
	// chunk list has its full capacity, and the block indexes have grown.
	fill(2 * flushAt)
	if got := blocks(); got != 2*nPoints {
		t.Fatalf("%d samples a point wrote %d blocks, want %d", 2*flushAt, got, 2*nPoints)
	}

	if allocs := testing.AllocsPerRun(100, func() { fill(1) }); allocs != 0 {
		t.Errorf("Append allocates %.2f per %d samples on known points, want 0", allocs, nPoints)
	}

	rec := NewRecorder(st)
	asdu := &iec104.ASDU{Type: iec104.MMeNc}
	for o := 0; o < 8; o++ {
		asdu.Objects = append(asdu.Objects, iec104.InfoObject{IOA: keys[4*o].IOA,
			Value: iec104.Value{Kind: iec104.KindFloat, Float: 59.9}})
	}
	ev := core.FrameEvent{Time: base.Add(time.Hour), Outstation: keys[0].Station, FromOutstation: true, ASDU: asdu}
	if allocs := testing.AllocsPerRun(20, func() { rec.ObserveFrame(ev) }); allocs != 0 || rec.Err() != nil {
		t.Errorf("Recorder.ObserveFrame allocates %.2f per 8-object frame (err %v), want 0", allocs, rec.Err())
	}

	before := blocks()
	allocs := testing.AllocsPerRun(3, func() {
		fill(2)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	if got := blocks() - before; got != 0 {
		t.Fatalf("Syncs wrote %d blocks, want 0", got)
	}
	if allocs > 2 {
		t.Errorf("a Sync of %d points allocates %.1f, want O(1)", nPoints, allocs)
	}
	if st.jsize == 0 {
		t.Fatal("Syncs wrote no journal frame")
	}

	// The first point reaches FlushSamples: one block, an empty buffer.
	buf := st.stations[keys[0].Station][keys[0].IOA]
	before = blocks()
	for i := buf.n; i < flushAt; i++ {
		tick++
		if err := st.Append(keys[0], typ, false, physical.Sample{T: base.Add(time.Duration(tick) * time.Second), V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := blocks() - before; got != 1 || buf.n != 0 {
		t.Errorf("reaching FlushSamples wrote %d blocks and left %d samples buffered, want 1 and 0", got, buf.n)
	}
}
