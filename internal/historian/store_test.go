package historian

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/physical"
)

var testBase = time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

func feedN(t *testing.T, st *Store, key PointKey, n int, start time.Time, step time.Duration) []physical.Sample {
	t.Helper()
	samples := make([]physical.Sample, n)
	for i := 0; i < n; i++ {
		s := physical.Sample{T: start.Add(time.Duration(i) * step), V: float64(i)}
		samples[i] = s
		if err := st.Append(key, 13, false, s); err != nil {
			t.Fatal(err)
		}
	}
	return samples
}

// TestStoreQueryMergesDiskAndBuffer checks the core contract: a query
// sees flushed blocks and the unflushed in-memory tail as one ordered
// sequence.
func TestStoreQueryMergesDiskAndBuffer(t *testing.T) {
	st, err := Open(t.TempDir(), Options{FlushSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := PointKey{Station: "O29", IOA: 3001}
	want := feedN(t, st, key, 200, testBase, time.Second) // 3 blocks + 8 buffered

	got, err := st.Query(key, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, got, want)

	// Range bounds are inclusive and honour the sparse index.
	from, to := testBase.Add(50*time.Second), testBase.Add(59*time.Second)
	got, err = st.Query(key, from, to)
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, got, want[50:60])
}

// TestStoreReopenResume closes a store cleanly and reopens it: the
// active segment is resumed with zero torn bytes and all data intact.
func TestStoreReopenResume(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{FlushSamples: 32})
	if err != nil {
		t.Fatal(err)
	}
	key := PointKey{Station: "O29", IOA: 3001}
	want := feedN(t, st, key, 100, testBase, time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st2, err := Open(dir, Options{FlushSamples: 32, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if torn := reg.Counter(MetricTornBytes).Value(); torn != 0 {
		t.Fatalf("clean close left %d torn bytes", torn)
	}
	got, err := st2.Query(key, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, got, want)

	// And the resumed segment accepts further appends.
	more := physical.Sample{T: testBase.Add(time.Hour), V: 1}
	if err := st2.Append(key, 13, false, more); err != nil {
		t.Fatal(err)
	}
	got, err = st2.Query(key, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, got, append(append([]physical.Sample(nil), want...), more))
}

// TestStoreCrashRecovery tears the active segment mid-record (as an
// interrupted write would) and reopens: the torn tail is truncated and
// at most the last unflushed block is lost.
func TestStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{FlushSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	key := PointKey{Station: "O29", IOA: 3001}
	want := feedN(t, st, key, 200, testBase, time.Second) // 4 full blocks
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: no Close, and the last record is half-written.
	names, err := segmentNames(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-13); err != nil {
		t.Fatal(err)
	}
	st.closeAll() // release the fds; state is as-if killed

	reg := obs.NewRegistry()
	st2, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if torn := reg.Counter(MetricTornBytes).Value(); torn == 0 {
		t.Fatal("expected torn bytes after mid-record truncation")
	}
	got, err := st2.Query(key, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the last block (50 samples) is gone; everything before
	// the torn record survives.
	assertSamplesEqual(t, got, want[:150])
}

// TestStoreRotationAndSealedIndex forces segment rotation and checks
// that sealed segments reopen via their index footer (not a scan) with
// all data queryable.
func TestStoreRotationAndSealedIndex(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{FlushSamples: 16, MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	key := PointKey{Station: "O29", IOA: 3001}
	want := feedN(t, st, key, 2000, testBase, time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %v", names)
	}
	// All but the last must carry a valid footer index.
	for _, name := range names[:len(names)-1] {
		seg, torn, err := openSegment(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !seg.sealed || torn != 0 {
			t.Fatalf("%s: sealed=%v torn=%d", name, seg.sealed, torn)
		}
		seg.close()
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Query(key, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, got, want)
}

// TestStoreCompactRetention ages out old sealed segments and
// downsamples mid-age ones, idempotently.
func TestStoreCompactRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{
		FlushSamples:    16,
		MaxSegmentBytes: 1024,
		Retention:       10 * 24 * time.Hour,
		DownsampleAfter: 24 * time.Hour,
		DownsampleStep:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := PointKey{Station: "O29", IOA: 3001}
	// Old data (dropped), mid-age data (downsampled), fresh data
	// (kept). Rotate between phases: retention works per segment, so
	// clean boundaries keep the ages separate.
	feedN(t, st, key, 400, testBase, time.Second)
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	midBase := testBase.Add(5 * 24 * time.Hour)
	feedN(t, st, key, 400, midBase, time.Second)
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	freshBase := testBase.Add(10 * 24 * time.Hour)
	fresh := feedN(t, st, key, 400, freshBase, time.Second)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	now := freshBase.Add(time.Hour)
	if err := st.Compact(now); err != nil {
		t.Fatal(err)
	}
	got, err := st.Query(key, time.Time{}, midBase.Add(-time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("retention left %d old samples", len(got))
	}
	mid, err := st.Query(key, midBase, midBase.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) == 0 || len(mid) >= 400 {
		t.Fatalf("downsampling kept %d samples, want 0 < n < 400", len(mid))
	}
	// 400 s of 1 Hz data at 1-minute buckets ≈ 7 samples.
	if len(mid) > 10 {
		t.Fatalf("downsampled to %d samples, want ≈7", len(mid))
	}
	freshGot, err := st.Query(key, freshBase, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, freshGot, fresh)

	// Idempotence: a second Compact must not change anything.
	if err := st.Compact(now); err != nil {
		t.Fatal(err)
	}
	mid2, err := st.Query(key, midBase, midBase.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	assertSamplesEqual(t, mid2, mid)
}

// TestStoreCatalogAndDownsample covers the catalog and bucketed query.
func TestStoreCatalogAndDownsample(t *testing.T) {
	st, err := Open(t.TempDir(), Options{FlushSamples: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	k1 := PointKey{Station: "O29", IOA: 3001}
	k2 := PointKey{Station: "O7", IOA: 7001}
	feedN(t, st, k1, 100, testBase, time.Second)
	for i := 0; i < 50; i++ {
		s := physical.Sample{T: testBase.Add(time.Duration(i) * time.Second), V: 1}
		if err := st.Append(k2, 50, true, s); err != nil {
			t.Fatal(err)
		}
	}
	cat := st.Catalog()
	if len(cat) != 2 {
		t.Fatalf("catalog has %d points, want 2", len(cat))
	}
	// Sorted by station then IOA: O29 before O7 (lexicographic).
	if cat[0].Key != k1 || cat[1].Key != k2 {
		t.Fatalf("catalog order: %v", cat)
	}
	if cat[0].Samples != 100 || cat[0].Command || cat[1].Samples != 50 || !cat[1].Command {
		t.Fatalf("catalog rows wrong: %+v", cat)
	}
	if cat[0].First != testBase || cat[0].Last != testBase.Add(99*time.Second) {
		t.Fatalf("catalog extent wrong: %+v", cat[0])
	}

	buckets, err := st.Downsample(k1, time.Time{}, time.Time{}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	b := buckets[0]
	if b.Count != 60 || b.Min != 0 || b.Max != 59 || b.Mean != 29.5 {
		t.Fatalf("bucket 0: %+v", b)
	}
}

// TestStoreOutOfOrderAcrossBlocks writes interleaved time ranges into
// separate blocks; queries must still return a globally sorted view.
func TestStoreOutOfOrderAcrossBlocks(t *testing.T) {
	st, err := Open(t.TempDir(), Options{FlushSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := PointKey{Station: "O29", IOA: 3001}
	rng := rand.New(rand.NewSource(9))
	var want []physical.Sample
	for i := 0; i < 100; i++ {
		s := physical.Sample{T: testBase.Add(time.Duration(rng.Intn(1000)) * time.Second), V: float64(i)}
		want = append(want, s)
		if err := st.Append(key, 13, false, s); err != nil {
			t.Fatal(err)
		}
	}
	sortSamples(want)
	got, err := st.Query(key, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].T.Equal(want[i].T) {
			t.Fatalf("sample %d out of order: %v vs %v", i, got[i].T, want[i].T)
		}
	}
}

// TestQueryHandler exercises the HTTP surface: catalog, range query,
// downsampled query, and error paths.
func TestQueryHandler(t *testing.T) {
	st, err := Open(t.TempDir(), Options{FlushSamples: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := PointKey{Station: "O29", IOA: 3001}
	feedN(t, st, key, 120, testBase, time.Second)
	srv := httptest.NewServer(QueryHandler(st))
	defer srv.Close()

	var cat []map[string]any
	getJSON(t, srv.URL+"/query", &cat)
	if len(cat) != 1 || cat[0]["station"] != "O29" || cat[0]["samples"] != float64(120) {
		t.Fatalf("catalog: %v", cat)
	}

	var rows []map[string]any
	getJSON(t, srv.URL+"/query?station=O29&ioa=3001&from="+testBase.Format(time.RFC3339)+"&to="+testBase.Add(9*time.Second).Format(time.RFC3339), &rows)
	if len(rows) != 10 {
		t.Fatalf("range query returned %d rows, want 10", len(rows))
	}

	var buckets []map[string]any
	getJSON(t, srv.URL+"/query?station=O29&ioa=3001&step=1m", &buckets)
	if len(buckets) != 2 {
		t.Fatalf("downsample returned %d buckets, want 2", len(buckets))
	}

	resp, err := srv.Client().Get(srv.URL + "/query?station=O29&ioa=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad ioa returned %d, want 400", resp.StatusCode)
	}
}

// TestQueryNonFiniteIs500: a point whose history holds a value
// encoding/json refuses answers its JSON query with a 500 naming the
// encoding error, not an empty 200.
func TestQueryNonFiniteIs500(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := PointKey{Station: "O29", IOA: 3001}
	for i, v := range []float64{1, math.Inf(1), 2} {
		if err := st.Append(key, physical.IEC104Type(iec104.MMeNc), false, physical.Sample{T: testBase.Add(time.Duration(i) * time.Second), V: v}); err != nil {
			t.Fatal(err)
		}
	}
	rr := httptest.NewRecorder()
	QueryHandler(st).ServeHTTP(rr, httptest.NewRequest("GET", "/query?station=O29&ioa=3001", nil))
	if rr.Code != http.StatusInternalServerError || !strings.Contains(rr.Body.String(), "+Inf") {
		t.Errorf("query = %d %q, want a 500 naming the +Inf", rr.Code, rr.Body.String())
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMetrics checks the registry wiring end to end.
func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir(), Options{FlushSamples: 32, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	key := PointKey{Station: "O29", IOA: 3001}
	feedN(t, st, key, 100, testBase, time.Second)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter(MetricAppends).Value(); v != 100 {
		t.Fatalf("appends = %d, want 100", v)
	}
	if v := reg.Counter(MetricBlocks).Value(); v < 3 {
		t.Fatalf("blocks = %d, want >= 3", v)
	}
	if v := reg.Gauge(MetricRatio).Value(); v <= 1 {
		t.Fatalf("compression ratio %v, want > 1", v)
	}
	if v := reg.Counter(MetricFsyncs).Value(); v < 1 {
		t.Fatalf("fsyncs = %d, want >= 1", v)
	}
}
