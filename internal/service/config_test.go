package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncharted/internal/pipeline"
)

// TestParseConfigRejectsUnknownKeys: a misspelt key at any level — top,
// tenant, source, pipeline, segment node — fails the load with the
// file, the line, where it sits and the key, instead of being dropped
// while the graph runs on defaults.
func TestParseConfigRejectsUnknownKeys(t *testing.T) {
	doc := `{
  "lisen": ":9180", // top level
  "tenants": [
    {"name": "east", "source": {"kind": "sim", "yaer": 2},
     "worker": 4, "histrian": true},
  ],
  "pipelines": [
    {"name": "tap", "segmnets": [],
     "segments": [
       {"id": "src", "segment": "sim", "parmas": {"year": 9}},
     ]},
  ],
}`
	_, err := ParseConfig([]byte(doc), "typo.jsonc")
	if err == nil {
		t.Fatal("ParseConfig accepted six misspelt keys")
	}
	for _, want := range []string{
		`typo.jsonc:2: unknown key "lisen"`,
		`typo.jsonc:4: tenant "east" source: unknown key "yaer"`,
		`typo.jsonc:5: tenant "east": unknown key "worker"`,
		`typo.jsonc:5: tenant "east": unknown key "histrian"`,
		`typo.jsonc:8: pipeline "tap": unknown key "segmnets"`,
		`typo.jsonc:10: pipeline "tap" segment "src": unknown key "parmas"`,
	} {
		if !strings.Contains(err.Error(), want+" (want ") {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}

	// Spelt right, the same document loads with every value it names.
	fixed := strings.NewReplacer(`"lisen"`, `"listen"`, `"yaer"`, `"year"`, `"worker"`, `"workers"`,
		`"histrian": true`, `"historian": false`, `"segmnets": [],`, ``, `"parmas"`, `"params"`, `"year": 9`, `"year": 2`).Replace(doc)
	cfg, err := ParseConfig([]byte(fixed), "fixed.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Listen != ":9180" || cfg.Tenants[0].Workers != 4 || cfg.Tenants[0].Source.Year != 2 || len(cfg.Pipelines[0].Nodes[0].Params) == 0 {
		t.Errorf("loaded %+v", cfg)
	}
}

// TestParseConfigChecksTenants: the loader compiles every shorthand
// tenant and graph-checks every pipeline, so a config that cannot boot
// fails here, with every failure located, before any segment is built.
func TestParseConfigChecksTenants(t *testing.T) {
	doc := `{
  "tenants": [
    {"name": "a", "source": {"kind": "carrier-pigeon"}},
    {"name": "b", "source": {"kind": "sim"}, "historian": true},
    {"name": "a", "source": {"kind": "probe"}},
  ],
  "pipelines": [
    {"name": "b", "segments": [{"id": "src", "segment": "nope"}]},
  ],
}`
	_, err := ParseConfig([]byte(doc), "bad.jsonc")
	if err == nil {
		t.Fatal("ParseConfig accepted a config that cannot boot")
	}
	for _, want := range []string{
		`bad.jsonc:3: tenant "a": unknown source kind "carrier-pigeon"`,
		`bad.jsonc:4: tenant "b": historian enabled but no historian_root configured`,
		`bad.jsonc:5: tenant "a": duplicate tenant name`,
		`bad.jsonc:8: pipeline "b": name taken by a tenant`,
		`bad.jsonc:8: pipeline "b" segment "src": unknown segment kind "nope"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
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
		`{"listen": ":9180", "historian_root": "/h", "cache_entries": -1, "tenants": [
  {"name": "east", "source": {"kind": "sim", "year": 1, "seed": 7, "speed": 60, "duration": "1m"},
   "workers": 2, "historian": true, "snapshot": 5e8},
  {"name": "west", "source": {"kind": "pcap", "path": "w.pcap"}},
  {"name": "fleet", "source": {"kind": "probe"}}]}`,
		"{/* a */ \"tenants\": [{\"name\": \"x\", // b\n \"source\": {\"kind\": \"follow\", \"path\": \"a\\\"//b\"},},],}",
		`{"tenants": [{"name": "a", "workr": 1}]}`,
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
		if err := cfg.Validate(); err != nil {
			t.Fatalf("loaded config fails Validate: %v", err)
		}
	})
}
