package obs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"uncharted/internal/drift"
	"uncharted/internal/obs"
	"uncharted/internal/stream"
)

// freshIndented is the rendering every JSON surface used to spell out
// for itself: a new Encoder per document, two-space indent.
func freshIndented(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingWriter records how the document reached the writer.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestIndentedJSONMatchesEncoder: the one pooled renderer produces,
// byte for byte, what a fresh indented json.Encoder does — on the
// documents the system actually serves (the stream goldens as
// profiles, a status document, a drift report, historian query rows) —
// hands each over in one Write, leaves a failed document unwritten and
// itself usable, and keeps documents apart under concurrent use (run
// with -race).
func TestIndentedJSONMatchesEncoder(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "stream", "testdata", "golden_*.drift"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no stream goldens found: %v", err)
	}
	var docs []any
	var profiles []*drift.Profile
	for i, path := range paths {
		p, err := drift.LoadProfile(path)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
		docs = append(docs, stream.BuildProfile(p.Partial, i+1, 3, 1202))
	}
	docs = append(docs, stream.New(stream.Config{Workers: 2}).Status())
	report := drift.Compare(profiles[0], profiles[len(profiles)-1], drift.DefaultThresholds())
	if len(report.Findings) == 0 {
		t.Fatal("iec104 vs mixed golden should drift")
	}
	docs = append(docs, report)
	type row struct {
		T time.Time `json:"t"`
		V float64   `json:"v"`
	}
	rows := make([]row, 500)
	for i := range rows {
		rows[i] = row{T: time.Unix(1_600_000_000, int64(i)*1e6).UTC(), V: float64(i) / 7}
	}
	docs = append(docs, rows, []row{}, map[string]string{"error": `unknown tenant "<x>&y"`})

	want := make([][]byte, len(docs))
	for i, d := range docs {
		want[i] = freshIndented(t, d)
		var w countingWriter
		if err := obs.WriteIndentedJSON(&w, d); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !bytes.Equal(w.Bytes(), want[i]) {
			t.Errorf("doc %d (%T): %d bytes differ from the fresh encoder's %d", i, d, w.Len(), len(want[i]))
		}
		if w.writes != 1 {
			t.Errorf("doc %d (%T): %d writes, want 1", i, d, w.writes)
		}
	}

	// A document that cannot be marshalled writes nothing, reports the
	// encoder's error, and does not poison the pool.
	var w countingWriter
	var unsupported *json.UnsupportedValueError
	if err := obs.WriteIndentedJSON(&w, map[string]float64{"v": math.NaN()}); !errors.As(err, &unsupported) {
		t.Errorf("NaN: error %v, want an UnsupportedValueError", err)
	}
	if w.writes != 0 {
		t.Errorf("failed document reached the writer (%d bytes)", w.Len())
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; n < 40; n++ {
				i := (g + n) % len(docs)
				buf.Reset()
				if err := obs.WriteIndentedJSON(&buf, docs[i]); err != nil || !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d: doc %d differs under concurrent use (err %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
