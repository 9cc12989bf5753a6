package pipeline

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uncharted/internal/obs/trace"
	"uncharted/internal/stream"
)

// liveHost is the iec104live graph over a two-second feed.
func liveHost(h Host) Host {
	h.Graph = func(rec *trace.Recorder) (*Config, map[string]any) {
		return LiveGraph(LivePreset{Year: 1, Seed: 3, Duration: 2 * time.Second, Workers: 2, Trace: rec})
	}
	if h.After == nil {
		h.After = func(*Hosted) int { return 0 }
	}
	return h
}

// TestHostRootServesTheEngine is the mount rule of the single-analyzer
// commands: the root /statusz is the engine's own status document (what
// cmd/unchartedtop decodes), not the graph view it used to be
// overwritten with, and the graph view lives under /pipelines/{p}.
func TestHostRootServesTheEngine(t *testing.T) {
	fetch := func(url string, into any) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d, decode: %v (body %.120q)", url, resp.StatusCode, err, body)
		}
	}
	code := liveHost(Host{Addr: "127.0.0.1:0", After: func(h *Hosted) int {
		if h.Err != nil {
			t.Errorf("graph failed: %v", h.Err)
		}
		base := "http://" + h.Addr.String()
		var st stream.Status
		fetch(base+"/statusz?format=json", &st)
		if st.Workers != 2 || len(st.Readers) != 1 || st.Packets == 0 {
			t.Errorf("root /statusz: workers=%d readers=%d packets=%d, want the engine's 2/1/>0", st.Workers, len(st.Readers), st.Packets)
		}
		var graph []PipelineStatus
		fetch(base+"/pipelines/live/statusz?format=json", &graph)
		if len(graph) != 1 || graph[0].Name != "live" || len(graph[0].Segments) != 2 {
			t.Fatalf("/pipelines/live/statusz: %+v", graph)
		}
		// The sim feed was handed off: both ends of the edge report what
		// the engine ingested.
		if sim, an := graph[0].Segments[0], graph[0].Segments[1]; sim.PktsOut != st.Packets || an.PktsIn != st.Packets {
			t.Errorf("handoff edge reports %d out / %d in, engine ingested %d", sim.PktsOut, an.PktsIn, st.Packets)
		}
		var prof stream.Profile
		fetch(base+"/profile", &prof)
		if int64(prof.Packets) != st.Packets {
			t.Errorf("root /profile has %d packets, /statusz %d", prof.Packets, st.Packets)
		}
		return 0
	}}).Run()
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

// TestHostFailuresExitNonZero: what goes wrong around a graph that
// itself ran fine — the journal cannot be written, the trace cannot be
// exported — turns a command's exit code 0 into the host's Trouble.
func TestHostFailuresExitNonZero(t *testing.T) {
	t.Run("journal write", func(t *testing.T) {
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full to fail writes on")
		}
		if code := liveHost(Host{JournalPath: "/dev/full"}).Run(); code != 1 {
			t.Fatalf("exit code %d with an unwritable journal, want 1", code)
		}
	})
	t.Run("trace export", func(t *testing.T) {
		h := liveHost(Host{TracePath: filepath.Join(t.TempDir(), "missing", "trace.json"), TraceSample: 4, Trouble: 2})
		if code := h.Run(); code != 2 {
			t.Fatalf("exit code %d with an unwritable trace, want Trouble = 2", code)
		}
	})
	t.Run("clean", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "trace.json")
		if code := liveHost(Host{JournalPath: filepath.Join(t.TempDir(), "j.jsonl"), TracePath: trace, TraceSample: 4}).Run(); code != 0 {
			t.Fatalf("exit code %d on a clean run", code)
		}
		if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
			t.Errorf("no trace exported: %v", err)
		}
	})
}
