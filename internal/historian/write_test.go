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

// goldenWorkload drives a store the way a live engine does — frames
// through a Recorder, the odd single Append, a Sync per "snapshot" —
// with a deterministic script that crosses every decision the flush
// path takes: several segment rotations in the middle of a Sync's
// batch (16 KiB segments), batched fsyncs (4 KiB), one point that
// reaches FlushSamples between Syncs, late samples that force a sort,
// command-direction series and two stations sharing IOAs.
func goldenWorkload(t testing.TB, dir string) {
	t.Helper()
	st, err := Open(dir, Options{MaxSegmentBytes: 16 << 10, FsyncEveryBytes: 4 << 10, FlushSamples: 64})
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

// TestSegmentBytesGolden pins the segment files goldenWorkload leaves
// behind — name, size and SHA-256 of each — to what the
// one-write-per-record store produced for the same script (the fixture
// was generated at the commit before records were batched). Batching
// changes how bytes reach the file, never which bytes: block
// boundaries, record encoding, rotation points and seal indexes are all
// identical. Regenerate (only for a deliberate format change) with:
//
//	go test ./internal/historian -run TestSegmentBytesGolden -update
func TestSegmentBytesGolden(t *testing.T) {
	dir := t.TempDir()
	goldenWorkload(t, dir)
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 4 {
		t.Fatalf("workload produced %d segments; it must rotate several times", len(names))
	}
	var sb strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %d %x\n", name, len(data), sha256.Sum256(data))
	}
	got := sb.String()
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
		t.Errorf("segment files differ from the pre-batching store's\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestAppendAndSyncAllocs is the write path's allocation tripwire. On
// points the store already knows, appending allocates nothing — through
// Append or through a Recorder frame of eight objects — and a Sync that
// flushes N buffered points allocates nothing either: no sort closure,
// no per-block writer, no per-record buffer, one write for the lot. The
// one thing a flush may grow is each point's block index, so the test
// first syncs until every index has room for the measured runs.
func TestAppendAndSyncAllocs(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const (
		nPoints  = 256
		syncRuns = 3
	)
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
	indexHasRoom := func() bool {
		for _, key := range keys {
			pm := st.active.points[key]
			if pm == nil || cap(pm.Blocks)-len(pm.Blocks) < syncRuns+1 {
				return false
			}
		}
		return true
	}
	fill(200) // grow every buffer past anything measured below
	for warm := 0; !indexHasRoom(); warm++ {
		if warm > 64 {
			t.Fatal("block indexes never reached spare capacity")
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		fill(2)
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

	blocks := func() (n int) {
		for _, key := range keys {
			n += len(st.active.points[key].Blocks)
		}
		return n
	}
	before := blocks()
	allocs := testing.AllocsPerRun(syncRuns, func() {
		fill(2)
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	if flushed := blocks() - before; flushed != (syncRuns+1)*nPoints {
		t.Fatalf("measured Syncs flushed %d blocks, want %d", flushed, (syncRuns+1)*nPoints)
	}
	if allocs > 2 {
		t.Errorf("a Sync flushing %d points allocates %.1f, want O(1)", nPoints, allocs)
	}
}
