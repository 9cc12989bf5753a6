package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// runLogged runs cfg to the end and returns the alerts its analyzers
// logged, in logging order, and the runner.
func runLogged(t *testing.T, cfg *Config, opts Options) ([]ids.Alert, *Runner) {
	t.Helper()
	var (
		mu     sync.Mutex
		alerts []ids.Alert
	)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if al, ok := parseAlert(fmt.Sprintf(format, args...)); ok {
			alerts = append(alerts, al)
		}
	}
	runner, err := NewRunner(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return alerts, runner
}

// parseAlert reads an ALERT log line back: "... ALERT [an] " and the
// alert's String, "[sev3 new-endpoint] subject: detail".
func parseAlert(line string) (ids.Alert, bool) {
	_, rest, ok := strings.Cut(line, "ALERT [")
	if !ok {
		return ids.Alert{}, false
	}
	_, rest, ok = strings.Cut(rest, "] [sev")
	if !ok {
		return ids.Alert{}, false
	}
	sev, rest, _ := strings.Cut(rest, " ")
	kind, rest, _ := strings.Cut(rest, "] ")
	subject, detail, _ := strings.Cut(rest, ": ")
	n, err := strconv.Atoi(sev)
	return ids.Alert{Kind: ids.AlertKind(kind), Severity: n, Subject: subject, Detail: detail}, err == nil
}

// identity is what an alert fires once for: its kind and subject, and
// what its detail names of the once-key — the token of a new-token
// alert, the address of a new-endpoint one, the IOA of an unknown-point
// one. The rest of a detail (a type, a value, a rate) is the first
// shard's reading.
func identity(al ids.Alert) string {
	key := string(al.Kind) + "|" + al.Subject
	switch al.Kind {
	case ids.AlertNewToken, ids.AlertNewEndpoint:
		key += "|" + al.Detail
	case ids.AlertUnknownPoint:
		ioa, _, _ := strings.Cut(al.Detail, " (")
		key += "|" + ioa
	}
	return key
}

// referenceAlerts is the unsharded detector: one core.Analyzer with one
// ids.Monitor attached, fed the simulated attack of d.
func referenceAlerts(t *testing.T, base *ids.Baseline, attack string, d time.Duration) []ids.Alert {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, 1)
	cfg.Duration = d
	tr, _, _, err := simulate(cfg, attack)
	if err != nil {
		t.Fatal(err)
	}
	var alerts []ids.Alert
	a := core.NewAnalyzer(core.NamesFromTopology(topology.Build()))
	a.SetFrameObserver(ids.NewMonitor(base, func(al ids.Alert) { alerts = append(alerts, al) }))
	src := stream.NewRecordSource(tr.Records, 0)
	for {
		pkt, err := src.Next()
		if err != nil {
			break
		}
		a.Feed(&pkt)
	}
	return alerts
}

// TestOneDetectorMatchesReference: the analyzer's per-shard monitors
// raise what one unsharded monitor over the same feed raises. At one
// shard the alerts are the same multiset; at 2 and 4 every alert
// identity fires exactly once, from whichever shard trips it first, and
// the identities are the reference's.
func TestOneDetectorMatchesReference(t *testing.T) {
	for _, d := range []time.Duration{30 * time.Second, 2 * time.Minute} {
		base, err := TrainBaseline(topology.Y1, 1001, d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ids.base")
		if err := drift.SaveBaseline(path, base); err != nil {
			t.Fatal(err)
		}
		for _, attack := range []string{"recon", "breaker", "setpoint"} {
			t.Run(fmt.Sprintf("%s/%s", attack, d), func(t *testing.T) {
				ref := referenceAlerts(t, base, attack, d)
				if len(ref) == 0 {
					t.Fatal("the reference raised no alert")
				}
				refIDs := make(map[string]bool, len(ref))
				for _, al := range ref {
					refIDs[identity(al)] = true
				}
				for _, workers := range []int{1, 2, 4} {
					cfg := SourceGraph("p", "sim", "sim",
						map[string]any{"year": 1, "seed": 1, "duration": d, "attack": attack},
						map[string]any{"workers": workers, "ids_baseline": path})
					got, _ := runLogged(t, cfg, Options{})
					if workers == 1 {
						if want, have := alertStrings(ref), alertStrings(got); !reflect.DeepEqual(want, have) {
							t.Errorf("1 shard: alerts\n%s\nwant the reference's\n%s", strings.Join(have, "\n"), strings.Join(want, "\n"))
						}
						continue
					}
					fired := make(map[string]int, len(got))
					for _, al := range got {
						fired[identity(al)]++
					}
					for id, n := range fired {
						if n != 1 {
							t.Errorf("%d shards: %s fired %d times", workers, id, n)
						}
						if !refIDs[id] {
							t.Errorf("%d shards: %s fired, the reference raised no such alert", workers, id)
						}
					}
					for id := range refIDs {
						if fired[id] == 0 {
							t.Errorf("%d shards: missed the reference's %s", workers, id)
						}
					}
				}
			})
		}
	}
}

// alertStrings renders alerts for a multiset comparison.
func alertStrings(alerts []ids.Alert) []string {
	out := make([]string, len(alerts))
	for i, al := range alerts {
		out[i] = al.String()
	}
	sort.Strings(out)
	return out
}

// TestWebhookPostsEachAlert: an analyzer's alerts ride its output edge
// to a webhook, one document per alert identity naming the pipeline,
// the webhook segment, the kind and the subject. An endpoint answering 500 is
// counted on the webhook's failure metric and does not fail the run.
func TestWebhookPostsEachAlert(t *testing.T) {
	var (
		mu   sync.Mutex
		docs []map[string]any
	)
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc map[string]any
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		mu.Lock()
		docs = append(docs, doc)
		mu.Unlock()
	}))
	defer ok.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer failing.Close()

	cfg, err := Parse([]byte(fmt.Sprintf(`{"pipelines": [{"name": "p", "segments": [
	  { "id": "sim", "segment": "sim", "params": { "duration": "30s", "attack": "recon" } },
	  { "id": "an", "segment": "analyzer", "from": ["sim"], "params": { "workers": 2, "ids_train_year": 1, "ids_train_seed": 1001, "ids_train_duration": "30s" } },
	  { "id": "hook", "segment": "webhook", "from": ["an"], "params": { "url": %q } },
	  { "id": "down", "segment": "webhook", "from": ["an"], "params": { "url": %q } }
	]}]}`, ok.URL, failing.URL)), "webhook.jsonc")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	alerts, _ := runLogged(t, cfg, Options{Registry: reg})
	if len(alerts) == 0 {
		t.Fatal("the recon attack raised no alert")
	}

	var posted, logged []string
	mu.Lock()
	defer mu.Unlock()
	for _, doc := range docs {
		if doc["pipeline"] != "p" || doc["segment"] != "hook" {
			t.Errorf("document names pipeline %v, segment %v; want p, hook", doc["pipeline"], doc["segment"])
		}
		posted = append(posted, fmt.Sprintf("%v|%v|%v", doc["kind"], doc["subject"], doc["detail"]))
	}
	seen := make(map[string]bool, len(alerts))
	for _, al := range alerts {
		logged = append(logged, fmt.Sprintf("%s|%s|%s", al.Kind, al.Subject, al.Detail))
		if id := identity(al); seen[id] {
			t.Errorf("%s alerted twice", id)
		} else {
			seen[id] = true
		}
	}
	sort.Strings(posted)
	sort.Strings(logged)
	if !reflect.DeepEqual(posted, logged) {
		t.Errorf("posted %d documents\n%s\nwant one per logged alert\n%s", len(posted), strings.Join(posted, "\n"), strings.Join(logged, "\n"))
	}
	failures := func(id string) int64 {
		return reg.With("pipeline", "p").With("segment", id).Counter("uncharted_pipeline_webhook_failures_total").Value()
	}
	if n := failures("down"); n != int64(len(alerts)) {
		t.Errorf("failing endpoint: %d failures counted, want %d", n, len(alerts))
	}
	if n := failures("hook"); n != 0 {
		t.Errorf("answering endpoint: %d failures counted, want 0", n)
	}
}
