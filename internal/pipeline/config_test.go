package pipeline

import (
	"strings"
	"testing"
)

// golden is a JSONC document exercising comments, trailing commas and
// every declaration feature: multiple pipelines, fan-out, params.
const golden = `// a comment before everything
{
  /* block comment */
  "pipelines": [
    {
      "name": "main",
      "segments": [
        { "id": "src", "segment": "sim", "params": { "duration": "10s", "seed": 3 } },
        { "id": "keep", "segment": "station", "from": ["src"], "params": { "stations": ["C1"] } },
        { "id": "an", "segment": "analyzer", "from": ["keep"], "params": { "workers": 2 } }, // trailing comma next
        { "id": "ids", "segment": "ids", "from": ["keep"], "params": { "train_year": 1 } },
        { "id": "alerts", "segment": "log", "from": ["ids"], },
      ],
    },
    {
      "name": "side",
      "segments": [
        { "id": "src", "segment": "pcap", "params": { "path": "x.pcap" } },
        { "id": "an", "segment": "analyzer", "from": ["src"] },
      ],
    },
  ],
}
`

func TestParseGolden(t *testing.T) {
	cfg, err := Parse([]byte(golden), "golden.jsonc")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(cfg.Pipelines) != 2 {
		t.Fatalf("got %d pipelines, want 2", len(cfg.Pipelines))
	}
	main := cfg.Pipelines[0]
	if main.Name != "main" || len(main.Nodes) != 5 {
		t.Fatalf("pipeline[0] = %q with %d nodes, want main with 5", main.Name, len(main.Nodes))
	}
	wantKinds := []string{"sim", "station", "analyzer", "ids", "log"}
	for i, k := range wantKinds {
		if main.Nodes[i].Kind != k {
			t.Errorf("main node %d kind = %q, want %q", i, main.Nodes[i].Kind, k)
		}
	}
	// Fan-out: both an and ids consume keep.
	if got := main.Nodes[2].From[0]; got != "keep" {
		t.Errorf("an.from = %q, want keep", got)
	}
	if got := main.Nodes[3].From[0]; got != "keep" {
		t.Errorf("ids.from = %q, want keep", got)
	}
	if cfg.Pipelines[1].Name != "side" {
		t.Errorf("pipeline[1] = %q, want side", cfg.Pipelines[1].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want []string // substrings that must all appear in the error
	}{
		{
			name: "syntax error names the line",
			doc:  "{\n  \"pipelines\": [\n    }\n  ]\n}\n",
			want: []string{"bad.jsonc:3"},
		},
		{
			name: "unknown segment kind",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "nope" }
			]}]}`,
			want: []string{"bad.jsonc:2", `unknown segment kind "nope"`, "unchartedd -segments"},
		},
		{
			name: "duplicate segment id",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "sim" },
				{ "id": "src", "segment": "sim" }
			]}]}`,
			want: []string{"bad.jsonc:3", "duplicate segment id"},
		},
		{
			name: "missing required param",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "pcap" }
			]}]}`,
			want: []string{"bad.jsonc:2", `"path"`, "required"},
		},
		{
			name: "wrong param type",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "sim", "params": { "seed": "not-a-number" } }
			]}]}`,
			want: []string{"bad.jsonc:2", "seed"},
		},
		{
			// Knobs nobody set, now constants: batch, queue, poll.
			name: "removed tuning params",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "follow", "params": { "path": "x.pcap", "poll": "5ms" } },
				{ "id": "an", "segment": "analyzer", "from": ["src"], "params": { "batch": 32 } },
				{ "id": "a2", "segment": "analyzer", "from": ["src"], "params": { "queue": 8 } }
			]}]}`,
			want: []string{"bad.jsonc:2", `unknown param "poll"`, "bad.jsonc:3", `unknown param "batch"`, "bad.jsonc:4", `unknown param "queue"`},
		},
		{
			// A misspelt key would otherwise be dropped, and the segment
			// would run on its defaults.
			name: "unknown keys",
			doc: `{"pipeline": [],
			  "pipelines": [{"name": "p", "segmnets": [], "segments": [
				{ "id": "src", "segment": "sim", "parmas": { "year": 9 } }
			]}]}`,
			want: []string{`bad.jsonc:1: unknown key "pipeline"`, `bad.jsonc:2: pipeline "p": unknown key "segmnets"`,
				`bad.jsonc:3: pipeline "p" segment "src": unknown key "parmas" (want from, id, params, segment)`},
		},
		{
			name: "dangling edge",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "sim" },
				{ "id": "an", "segment": "analyzer", "from": ["ghost"] }
			]}]}`,
			want: []string{"bad.jsonc:3", "dangling edge", `"ghost"`},
		},
		{
			name: "port type mismatch",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "sim" },
				{ "id": "out", "segment": "export", "from": ["src"], "params": { "path": "x.json" } }
			]}]}`,
			want: []string{"bad.jsonc:3", "port type mismatch", "packets", "profiles"},
		},
		{
			name: "input with from",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "a", "segment": "sim" },
				{ "id": "b", "segment": "sim", "from": ["a"] }
			]}]}`,
			want: []string{"bad.jsonc:3", "input segment"},
		},
		{
			name: "no input segment",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "an", "segment": "analyzer", "from": ["an2"] },
				{ "id": "an2", "segment": "analyzer", "from": ["an"] }
			]}]}`,
			want: []string{"no input segment", "cycle", "an -> an2 -> an"},
		},
		{
			name: "no pipelines",
			doc:  `{"pipelines": []}`,
			want: []string{"declares no pipelines"},
		},
		{
			name: "multiple errors reported together",
			doc: `{"pipelines": [{"name": "p", "segments": [
				{ "id": "src", "segment": "nope" },
				{ "id": "an", "segment": "analyzer", "from": ["ghost"] }
			]}]}`,
			want: []string{"unknown segment kind", "dangling edge"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc), "bad.jsonc")
			if err == nil {
				t.Fatal("Parse succeeded, want error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\n  missing %q", err, w)
				}
			}
		})
	}
}

func TestPresetGraphsValidate(t *testing.T) {
	cfg, _ := ProfilerGraph(ProfilerPreset{Path: "x.pcap", Workers: 4, Names: true})
	if err := cfg.Validate(); err != nil {
		t.Errorf("ProfilerGraph config invalid: %v", err)
	}
	for _, attack := range []string{"", "recon"} {
		cfg, _ = LiveGraph(LivePreset{Year: 1, Seed: 1, Workers: 2, Attack: attack})
		if err := cfg.Validate(); err != nil {
			t.Errorf("LiveGraph config (attack %q) invalid: %v", attack, err)
		}
	}
}
