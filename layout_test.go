package uncharted_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uncharted/internal/service"
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
// once, by the dialect's session, and every consumer — the analyzer's
// physical store, the historian, the live IDS — reads those points; the
// historian never looks inside an ASDU.
func TestOnePointExtraction(t *testing.T) {
	if got := linesNaming(t, ".", "iec104.AppendPoints("); len(got) > 0 {
		t.Errorf("iec104.AppendPoints( is called outside the IEC 104 session, on lines of %v", got)
	}
	dialect := filepath.Join("internal", "iec104", "dialect.go")
	want := []string{dialect, dialect} // the definition and the session's call
	if got := linesNaming(t, filepath.Join("internal", "iec104"), "AppendPoints("); !slices.Equal(got, want) {
		t.Errorf("AppendPoints( is named on lines of %v, want its definition and one call in %v", got, dialect)
	}
	if got := linesNaming(t, filepath.Join("internal", "historian"), "iec104."); len(got) > 0 {
		t.Errorf("internal/historian names iec104 in %v", got)
	}
}

// TestOneIEC104Parser: an IEC 104 frame is framed and parsed in one
// place, the dialect's session, which every consumer reaches through
// the analyzer. Only the benchmark harness, which times the codec layer
// by layer, calls the tolerant parser itself.
func TestOneIEC104Parser(t *testing.T) {
	if got := linesOutside(t, filepath.Join("internal", "iec104"), "iec104.NextFrame(", ".ParseFrameAt(", ".ParseFrameInto(", ".ProfileAt(", ".StrictPlausible("); len(got) > 0 {
		t.Errorf("IEC 104 frames are framed or parsed outside the session, on lines of %v", got)
	}
}

// TestOneFramingLoop: every dialect session frames through the one
// resync loop, protocol.Framing.Next, and a dialect declares only its
// head rule. The one NextFrame left is IEC 104's wrapper over its
// Framing, which the benchmark harness's codec layer calls.
func TestOneFramingLoop(t *testing.T) {
	got := linesNaming(t, "internal", "func NextFrame(")
	if len(got) != 1 || got[0] != filepath.Join("internal", "iec104", "dialect.go") {
		t.Errorf("NextFrame is declared on lines of %v, want only iec104's wrapper", got)
	}
}

// TestOneMonitorSet: an engine's online detector is built by
// ids.NewMonitorSet — one monitor per shard, all sharing one fired-once
// set — so an alert fires once however many shards see its subject.
// Only the benchmark harness, which times a bare monitor, builds one
// with ids.NewMonitor.
func TestOneMonitorSet(t *testing.T) {
	if got := linesOutside(t, filepath.Join("internal", "ids"), "ids.NewMonitor("); len(got) > 0 {
		t.Errorf("a Monitor is built outside ids.NewMonitorSet, on lines of %v", got)
	}
}

// TestReadmeConfigParses: the service config README shows is one the
// daemon accepts, segment kinds and params included.
func TestReadmeConfigParses(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "```jsonc\n")
	if !ok {
		t.Fatal("README.md has no jsonc block")
	}
	block, _, _ = strings.Cut(block, "```")
	if _, err := service.ParseConfig([]byte(block), "README.md"); err != nil {
		t.Errorf("README's config block does not parse: %v", err)
	}
}

// linesOutside is linesNaming over the whole tree, less the files under
// own and under benchmark/, which times the layers one by one.
func linesOutside(t *testing.T, own string, subs ...string) []string {
	t.Helper()
	var got []string
	for _, path := range linesNaming(t, ".", subs...) {
		if !strings.HasPrefix(path, own+string(filepath.Separator)) && !strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			got = append(got, path)
		}
	}
	return got
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
