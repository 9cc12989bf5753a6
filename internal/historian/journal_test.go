package historian

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/physical"
)

// fileSizes maps every file directly under dir to its size.
func fileSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes[e.Name()] = fi.Size()
	}
	return sizes
}

// TestSyncedSamplesSurviveCrash is the storage definition of
// durability: every acknowledged write is readable after a restart
// from only the bytes flushed before the crash. Each seeded script
// appends to several points — late samples among them — with random
// Syncs and Flushes, rotating at 4 KiB segments. After its last Sync
// it appends more without syncing, then crashes: every file is cut to
// a random length between its size at that Sync and its size now, and
// files created since are deleted. The reopened store must hold every
// sample appended before the last Sync exactly once, and no sample
// twice. Every sample carries a unique value, so each is traceable.
func TestSyncedSamplesSurviveCrash(t *testing.T) {
	seeds := 240
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		crashScript(t, int64(seed))
	}
}

func crashScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 4 << 10, FlushSamples: 4 + rng.Intn(40), FsyncEveryBytes: int64(rng.Intn(3)) << 10}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := []PointKey{{"O1", 1}, {"O1", 2}, {"O2", 1}, {"10.0.5.9", 7}, {"O3", 4001}}
	appended := make(map[float64]PointKey) // value → point
	times := make(map[float64]time.Time)
	var next float64
	clock := testBase
	step := func(syncs bool) {
		switch r := rng.Intn(100); {
		case syncs && r < 8:
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		case r < 11:
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		default:
			key := keys[rng.Intn(len(keys))]
			clock = clock.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
			at := clock
			if rng.Intn(6) == 0 { // a late sample
				at = at.Add(-time.Duration(rng.Intn(30)) * time.Second)
			}
			next++
			if err := st.Append(key, 13, false, physical.Sample{T: at, V: next}); err != nil {
				t.Fatal(err)
			}
			appended[next], times[next] = key, at
		}
	}
	for i := 200 + rng.Intn(600); i > 0; i-- {
		step(true)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	acked := next
	atSync := fileSizes(t, dir)
	for i := rng.Intn(300); i > 0; i-- {
		step(false)
	}
	st.closeAll() // the crash: nothing more is flushed
	for name, size := range fileSizes(t, dir) {
		path := filepath.Join(dir, name)
		was, ok := atSync[name]
		if !ok {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if cut := was + rng.Int63n(size-was+1); cut < size {
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
		}
	}

	st2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	defer st2.Close()
	seen := make(map[float64]bool)
	for _, key := range keys {
		got, err := st2.Query(key, time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range got {
			switch {
			case seen[s.V]:
				t.Fatalf("seed %d: %v sample %v appears twice", seed, key, s.V)
			case appended[s.V] != key || !times[s.V].Equal(s.T):
				t.Fatalf("seed %d: %v holds %v at %v, which was never appended there", seed, key, s.V, s.T)
			}
			seen[s.V] = true
		}
	}
	for v := 1.0; v <= acked; v++ {
		if !seen[v] {
			t.Fatalf("seed %d: sample %v of %v, appended before the last Sync, is lost", seed, v, appended[v])
		}
	}
}

// TestCompactEmptiesJournal: downsampling rewrites a segment a journal
// mark may name and moves its blocks in front of the mark. Compact
// empties the journal first; otherwise a crash after it would restore
// samples a downsampled block already holds.
func TestCompactEmptiesJournal(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushSamples: 16, DownsampleAfter: time.Hour}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, p := PointKey{Station: "O1", IOA: 1}, PointKey{Station: "O1", IOA: 2}
	feedN(t, st, q, 16, testBase, time.Second) // a block of q, in front of the mark
	feedN(t, st, p, 5, testBase, time.Second)  // p's tail, journaled
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(testBase.Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	st.closeAll() // a crash
	st, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Query(p, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%v holds %d samples after Compact and a crash, want its one downsampled mean", p, len(got))
	}
}

// journalTemplate builds a crashed store: blocks for three points, then
// two Syncs whose frames hold samples no block has. It returns the
// segment files and the journal.
func journalTemplate(tb testing.TB) (segs map[string][]byte, journal []byte) {
	dir := tb.TempDir()
	st, err := Open(dir, Options{FlushSamples: 4})
	if err != nil {
		tb.Fatal(err)
	}
	keys := []PointKey{{"O1", 1}, {"O1", 2}, {"O2", 7}}
	v := 0.0
	feed := func(n int) {
		for i := 0; i < n; i++ {
			for _, key := range keys {
				v++
				if err := st.Append(key, 13, false, physical.Sample{T: testBase.Add(time.Duration(v) * time.Second), V: v}); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := st.Sync(); err != nil {
			tb.Fatal(err)
		}
	}
	feed(6)
	feed(1)
	st.closeAll()
	segs = make(map[string][]byte)
	names, err := segmentNames(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range names {
		if segs[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			tb.Fatal(err)
		}
	}
	if journal, err = os.ReadFile(filepath.Join(dir, journalName)); err != nil {
		tb.Fatal(err)
	}
	return segs, journal
}

type sampleKey struct {
	t int64
	v uint64
}

func sampleKeyOf(s physical.Sample) sampleKey {
	return sampleKey{s.T.UnixNano(), math.Float64bits(s.V)}
}

// FuzzJournalReplay opens arbitrary journal bytes beside a valid
// segment. Open never panics or fails; the store holds every sample the
// segment holds and otherwise only samples of records from CRC-valid
// frames; what replay discards is counted as torn; and the recovered
// store has an empty journal, so a second Open changes nothing.
func FuzzJournalReplay(f *testing.F) {
	segs, journal := journalTemplate(f)
	if entries, valid := parseJournal(journal); len(entries) != 6 || valid != len(journal) {
		f.Fatalf("template journal holds %d records in %d of %d bytes, want 6 in all", len(entries), valid, len(journal))
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-1])
	f.Add(journal[:len(journal)/2])
	f.Add([]byte{})
	f.Add([]byte("UJNL garbage that is not a frame"))
	flipped := append([]byte(nil), journal...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	base := make(map[PointKey]map[sampleKey]int)
	{
		dir := f.TempDir()
		for name, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				f.Fatal(err)
			}
		}
		st, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, pi := range st.Catalog() {
			got, err := st.Query(pi.Key, time.Time{}, time.Time{})
			if err != nil {
				f.Fatal(err)
			}
			base[pi.Key] = make(map[sampleKey]int)
			for _, s := range got {
				base[pi.Key][sampleKeyOf(s)]++
			}
		}
		st.Close()
	}

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		for name, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, valid := parseJournal(journal)
		reg := obs.NewRegistry()
		st, err := Open(dir, Options{Registry: reg})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if torn := reg.Counter(MetricTornBytes).Value(); torn != int64(len(journal)-valid) {
			t.Fatalf("counted %d torn bytes, replay discarded %d", torn, len(journal)-valid)
		}
		if st.jsize != 0 {
			t.Fatalf("recovered store left %d journal bytes", st.jsize)
		}
		restorable := make(map[PointKey]map[sampleKey]int)
		for _, e := range entries {
			m := restorable[e.rec.key]
			if m == nil {
				m = make(map[sampleKey]int)
				restorable[e.rec.key] = m
			}
			for _, s := range e.samples {
				m[sampleKey{s.t, math.Float64bits(s.v)}]++
			}
		}
		cat := st.Catalog()
		for _, pi := range cat {
			got, err := st.Query(pi.Key, time.Time{}, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			have := make(map[sampleKey]int)
			for _, s := range got {
				have[sampleKeyOf(s)]++
			}
			for k, n := range base[pi.Key] {
				if have[k] < n {
					t.Fatalf("%v: segment sample %v lost", pi.Key, k)
				}
			}
			for k, n := range have {
				if n > base[pi.Key][k]+restorable[pi.Key][k] {
					t.Fatalf("%v: sample %v appears %d times, neither the segment nor a valid frame holds it so often", pi.Key, k, n)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reg = obs.NewRegistry()
		st, err = Open(dir, Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if torn := reg.Counter(MetricTornBytes).Value(); torn != 0 {
			t.Fatalf("second Open found %d torn bytes", torn)
		}
		if again := st.Catalog(); fmt.Sprint(again) != fmt.Sprint(cat) {
			t.Fatalf("second Open changed the catalog:\n%v\n%v", cat, again)
		}
	})
}

// TestRecorderDropsUnstorableTimes: a frame stamped outside the range a
// block can hold (a zero capture time, a pcapng stamp past 2262) is
// counted and skipped, later frames still record, and no query returns
// a time that was not appended. Append itself refuses such a time.
func TestRecorderDropsUnstorableTimes(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(st)
	frame := func(at time.Time, v float64) {
		rec.ObserveFrame(core.FrameEvent{Time: at, Outstation: "O29", FromOutstation: true, ASDU: &iec104.ASDU{
			Type: iec104.MMeNc,
			Objects: []iec104.InfoObject{
				{IOA: 3001, Value: iec104.Value{Kind: iec104.KindFloat, Float: v}},
				{IOA: 3002, Value: iec104.Value{Kind: iec104.KindFloat, Float: v}},
			},
		}})
	}
	frame(testBase, 1)
	frame(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), 2)
	frame(time.Time{}, 3)
	frame(testBase.Add(time.Second), 4)
	if err := rec.Err(); err != nil {
		t.Fatalf("an unstorable time stopped the recorder: %v", err)
	}
	if n := reg.Counter(MetricDropped).Value(); n != 4 {
		t.Fatalf("dropped %d samples, want 4", n)
	}
	if err := st.Append(PointKey{Station: "O29", IOA: 3001}, 13, false,
		physical.Sample{T: time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), V: 5}); err == nil {
		t.Fatal("Append took a year-2300 time")
	}
	check := func(st *Store) {
		t.Helper()
		for _, ioa := range []uint32{3001, 3002} {
			got, err := st.Query(PointKey{Station: "O29", IOA: ioa}, time.Time{}, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			want := []physical.Sample{{T: testBase, V: 1}, {T: testBase.Add(time.Second), V: 4}}
			assertSamplesEqual(t, got, want)
		}
	}
	check(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st)
}
