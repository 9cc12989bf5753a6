package drift

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uncharted/internal/ids"
	"uncharted/internal/topology"
)

// TestBaselineRoundTrip: persisting a trained whitelist and restoring
// it must change neither its bytes (save -> load -> save) nor its
// verdicts (Scan of a later capture produces identical alerts).
func TestBaselineRoundTrip(t *testing.T) {
	y1 := getEra(t, topology.Y1)
	y2 := getEra(t, topology.Y2)
	base, err := ids.Train(y1.analyze(t))
	if err != nil {
		t.Fatalf("train: %v", err)
	}

	first := EncodeBaseline(base)
	restored, err := DecodeBaseline(first)
	if err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	second := EncodeBaseline(restored)
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoded baseline differs (%d vs %d bytes)", len(first), len(second))
	}
	if !reflect.DeepEqual(base.State(), restored.State()) {
		t.Fatal("restored baseline state differs")
	}

	// The committed fixture is this same Y1 whitelist as the string-keyed
	// ids.Baseline / markov.NGram encoded it, before vocabularies and
	// n-gram counts were keyed by token value: the value-keyed
	// representation must train to the same bytes and re-encode a
	// decoded fixture to the same bytes.
	fixture, err := os.ReadFile(filepath.Join("testdata", "baseline_y1_string_keyed.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, fixture) {
		t.Errorf("trained baseline encodes to %d bytes that differ from the %d-byte pre-change fixture", len(first), len(fixture))
	}
	old, err := DecodeBaseline(fixture)
	if err != nil {
		t.Fatalf("decode pre-change fixture: %v", err)
	}
	if !bytes.Equal(EncodeBaseline(old), fixture) {
		t.Error("EncodeBaseline(DecodeBaseline(fixture)) differs from the pre-change fixture")
	}

	scanned := y2.analyze(t)
	want := base.Scan(scanned)
	got := restored.Scan(scanned)
	if len(want) == 0 {
		t.Fatal("era scan produced no alerts; scenario too weak to validate persistence")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored baseline scans differently: %d vs %d alerts", len(want), len(got))
	}
}

// TestBaselineSaveLoadFile covers the file-level helpers.
func TestBaselineSaveLoadFile(t *testing.T) {
	y1 := getEra(t, topology.Y1)
	base, err := ids.Train(y1.analyze(t))
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	path := filepath.Join(t.TempDir(), "baseline.prof")
	if err := SaveBaseline(path, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	e1, c1, p1 := base.Size()
	e2, c2, p2 := loaded.Size()
	if e1 != e2 || c1 != c2 || p1 != p2 {
		t.Fatalf("loaded baseline size (%d,%d,%d) != trained (%d,%d,%d)", e2, c2, p2, e1, c1, p1)
	}
}

// TestProfileSaveLoadFile covers the profile file helpers.
func TestProfileSaveLoadFile(t *testing.T) {
	p := getEra(t, topology.Y2).profile
	path := filepath.Join(t.TempDir(), "era.prof")
	if err := SaveProfile(path, p); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta != p.Meta {
		t.Fatalf("meta changed: %+v vs %+v", loaded.Meta, p.Meta)
	}
	if !bytes.Equal(loaded.Encode(), p.Encode()) {
		t.Fatal("loaded profile encodes differently")
	}
}
