package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncharted/internal/pipeline"
)

// TestParseConfigRejectsUnknownKeys: a misspelt key at any level — top,
// pipeline, segment node — fails the load with the file, the line,
// where it sits and the key, instead of being dropped while the graph
// runs on defaults. The tenant shorthand's keys are unknown like any
// other.
func TestParseConfigRejectsUnknownKeys(t *testing.T) {
	doc := `{
  "lisen": ":9180", // top level
  "historian_root": "hist",
  "tenants": [{"name": "east", "source": {"kind": "sim"}}],
  "pipelines": [
    {"name": "tap", "segmnets": [],
     "segments": [
       {"id": "src", "segment": "sim", "parmas": {"year": 9}},
     ]},
  ],
}`
	_, err := ParseConfig([]byte(doc), "typo.jsonc")
	if err == nil {
		t.Fatal("ParseConfig accepted five unknown keys")
	}
	const top = " (want cache_entries, listen, pipelines)"
	for _, want := range []string{
		`typo.jsonc:2: unknown key "lisen"` + top,
		`typo.jsonc:3: unknown key "historian_root"` + top,
		`typo.jsonc:4: unknown key "tenants"` + top,
		`typo.jsonc:6: pipeline "tap": unknown key "segmnets" (want `,
		`typo.jsonc:8: pipeline "tap" segment "src": unknown key "parmas" (want `,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}

	// Spelt right, the same document loads with every value it names.
	fixed := strings.NewReplacer(`"lisen"`, `"listen"`, `"historian_root": "hist",`, ``,
		`"tenants": [{"name": "east", "source": {"kind": "sim"}}],`, ``,
		`"segmnets": [],`, ``, `"parmas"`, `"params"`, `"year": 9`, `"year": 2`).Replace(doc)
	cfg, err := ParseConfig([]byte(fixed), "fixed.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != ":9180" || string(cfg.Pipelines[0].Nodes[0].Params) != `{"year": 2}` {
		t.Errorf("loaded %+v", cfg)
	}
}

// TestParseConfigChecksTenants: the loader graph-checks every tenant's
// pipeline, so a config that cannot boot fails here, with every failure
// located, before any segment is built. A pipeline with no segments is
// a probe-only tenant, and two analyzers may not open one historian
// directory.
func TestParseConfigChecksTenants(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		want      []string // substrings of the error; none: the config loads
	}{
		{"tenants is an unknown key", `{
  "tenants": [{"name": "east", "source": {"kind": "probe"}}]}`,
			[]string{`bad.jsonc:2: unknown key "tenants"`}},
		{"historian_root is an unknown key", `{"pipelines": [{"name": "fleet"}],
  "historian_root": "hist"}`,
			[]string{`bad.jsonc:2: unknown key "historian_root"`}},
		{"an empty pipeline is a probe-only tenant", `{"pipelines": [{"name": "fleet"}, {"name": "era", "segments": []}]}`, nil},
		{"shared historian", `{"pipelines": [
  {"name": "x", "segments": [
    {"id": "src", "segment": "sim"},
    {"id": "an", "segment": "analyzer", "from": ["src"], "params": {"historian": "h/x"}}]},
  {"name": "y", "segments": [
    {"id": "src", "segment": "sim"},
    {"id": "an", "segment": "analyzer", "from": ["src"], "params": {"historian": "h/./x"}}]}]}`,
			[]string{`bad.jsonc:7: pipeline "y" segment "an": historian h/x is also opened by pipeline "x" segment "an" (line 4)`}},
		{"graph errors", `{
  "pipelines": [
    {"name": "a", "segments": [{"id": "src", "segment": "nope"}]},
    {"name": "a"},
    {"name": "b/c"},
  ],
}`, []string{
			`bad.jsonc:3: pipeline "a" segment "src": unknown segment kind "nope"`,
			`bad.jsonc:4: pipeline "a": duplicate pipeline name`,
			`bad.jsonc:5: pipeline "b/c": name must be letters, digits, '-' or '_'`,
		}},
		{"no pipelines", `{"listen": ":9180"}`, []string{`bad.jsonc: config declares no pipelines`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := ParseConfig([]byte(tc.doc), "bad.jsonc")
			if tc.want == nil {
				if err != nil || len(cfg.Pipelines) == 0 {
					t.Fatalf("ParseConfig = %+v, %v", cfg, err)
				}
				return
			}
			if err == nil {
				t.Fatal("ParseConfig accepted a config that cannot boot")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error lacks %q:\n%v", want, err)
				}
			}
		})
	}
}

// FuzzParseConfig hammers the daemon's config front door: the loader
// never panics, the JSONC stripper keeps every byte offset on its
// source line (same length, same newlines), and a document that loads
// validates again.
func FuzzParseConfig(f *testing.F) {
	examples, _ := filepath.Glob("../../examples/pipelines/*.jsonc")
	for _, path := range examples {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data)
		}
	}
	for _, doc := range []string{
		`{"listen": ":9180", "cache_entries": -1, "pipelines": [
  {"name": "east", "segments": [
    {"id": "src", "segment": "sim", "params": {"year": 1, "seed": 7, "speed": 60, "duration": "1m"}},
    {"id": "an", "segment": "analyzer", "from": ["src"], "params": {"workers": 2, "historian": "/h/east", "snapshot": 5e8}}]},
  {"name": "west", "segments": [
    {"id": "src", "segment": "pcap", "params": {"path": "w.pcap"}},
    {"id": "an", "segment": "analyzer", "from": ["src"]}]},
  {"name": "fleet"}]}`,
		"{/* a */ \"pipelines\": [{\"name\": \"x\", // b\n \"segments\": [{\"id\": \"s\", \"segment\": \"follow\", \"params\": {\"path\": \"a\\\"//b\"},},],},],}",
		`{"pipelines": [{"name": "a", "segments": [{"id": "an", "segment": "analyzer", "params": {"workr": 1}}]}]}`,
		`{"pipelines": [{"name": "p", "segments": [{"id": "s", "segment": "sim", "parmas": {}}]}]}`,
		"",
		"/* unterminated",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clean := pipeline.StripJSONC(data)
		if len(clean) != len(data) {
			t.Fatalf("stripped %d bytes to %d", len(data), len(clean))
		}
		for i := range data {
			if (data[i] == '\n') != (clean[i] == '\n') {
				t.Fatalf("byte %d: newline %q stripped to %q", i, data[i], clean[i])
			}
		}
		cfg, err := ParseConfig(data, "fuzz.jsonc")
		if err != nil {
			return
		}
		if err := cfg.check("", nil); err != nil {
			t.Fatalf("loaded config fails its check again: %v", err)
		}
	})
}
