package uncharted_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneEngineConstructor: every front end declares a graph, and only
// the analyzer segment builds a stream.Engine — one call, in
// internal/pipeline/analysis.go. Drift detection lives in the pipeline,
// so internal/stream never names drift.Compare or DriftReport.
func TestOneEngineConstructor(t *testing.T) {
	want := []string{filepath.Join("internal", "pipeline", "analysis.go")}
	var got []string
	for _, root := range []string{"cmd", "internal"} {
		got = append(got, linesNaming(t, root, "stream.New(")...)
	}
	if !slices.Equal(got, want) {
		t.Errorf("stream.New( is called on lines of %v, want one line of %v", got, want)
	}
	if got := linesNaming(t, filepath.Join("internal", "stream"), "drift.Compare", "DriftReport"); len(got) > 0 {
		t.Errorf("internal/stream names the pipeline's drift watch in %v", got)
	}
}

// TestOneHistorianWriter: history is recorded only by the engine's
// per-shard recorders, armed by the analyzer's historian param — one
// historian.NewRecorder( call in the whole tree, in
// internal/stream/engine.go.
func TestOneHistorianWriter(t *testing.T) {
	want := []string{filepath.Join("internal", "stream", "engine.go")}
	if got := linesNaming(t, ".", "historian.NewRecorder("); !slices.Equal(got, want) {
		t.Errorf("historian.NewRecorder( is called on lines of %v, want one line of %v", got, want)
	}
}

// TestOnePointExtraction: an IEC 104 frame's measurements are extracted
// once, by the analyzer, and every consumer — the physical store, the
// historian, the live IDS — reads those points; the historian never
// looks inside an ASDU.
func TestOnePointExtraction(t *testing.T) {
	want := []string{filepath.Join("internal", "core", "analyzer.go")}
	if got := linesNaming(t, ".", "iec104.AppendPoints("); !slices.Equal(got, want) {
		t.Errorf("iec104.AppendPoints( is called on lines of %v, want one line of %v", got, want)
	}
	if got := linesNaming(t, filepath.Join("internal", "historian"), "iec104."); len(got) > 0 {
		t.Errorf("internal/historian names iec104 in %v", got)
	}
}

// linesNaming walks the non-test .go files under root and returns, once
// per matching line, the path of each file with a line containing any
// of subs.
func linesNaming(t *testing.T, root string, subs ...string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			for _, s := range subs {
				if strings.Contains(sc.Text(), s) {
					files = append(files, path)
					break
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
