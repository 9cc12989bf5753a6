package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandler drives the HTTP endpoint end to end: /metrics serves
// Prometheus text, /debug/vars serves the JSON snapshot with journal
// counts.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	var sink strings.Builder
	j := NewJournal(&sink)
	j.Log(time.Now(), EventConnState, "c", nil)

	srv := httptest.NewServer(HandlerWith(reg, j, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("metrics body missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics Snapshot            `json:"metrics"`
		Journal map[EventType]int64 `json:"journal_events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Metrics.Counters) != 1 || doc.Metrics.Counters[0].Value != 1 {
		t.Errorf("vars counters = %+v", doc.Metrics.Counters)
	}
	if doc.Journal[EventConnState] != 1 {
		t.Errorf("vars journal = %v", doc.Journal)
	}

	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

// TestHealthAndProfiling: the handler serves liveness and the pprof
// index out of the box.
func TestHealthAndProfiling(t *testing.T) {
	srv := httptest.NewServer(HandlerWith(NewRegistry(), nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("/healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, body lacks profile index", resp.StatusCode)
	}
}

// TestReadyHandler: readiness flips between 200 and 503 with a reason.
func TestReadyHandler(t *testing.T) {
	ready, reason := false, "draining"
	h := ReadyHandler(func() (bool, string) { return ready, reason })

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready status = %d, want 503", rr.Code)
	}
	var doc struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ready || doc.Reason != "draining" {
		t.Errorf("not-ready body = %+v", doc)
	}

	ready, reason = true, ""
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 200 {
		t.Fatalf("ready status = %d, want 200", rr.Code)
	}
}

// TestHistogramQuantile: the fixed-bucket estimate interpolates within
// the holding bucket and clamps at the last finite bound.
func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_test", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all samples in the (1,2] bucket
	}
	snap := reg.Snapshot().Histograms[0]
	if p50 := snap.Quantile(0.5); p50 <= 1 || p50 > 2 {
		t.Errorf("p50 = %v, want within (1,2]", p50)
	}
	h.Observe(100) // lands beyond the last bound
	snap = reg.Snapshot().Histograms[0]
	if p := snap.Quantile(0.9999); p != 4 {
		t.Errorf("tail quantile = %v, want clamp to 4", p)
	}
	var empty HistogramSnapshot
	if p := empty.Quantile(0.5); p != 0 {
		t.Errorf("empty quantile = %v", p)
	}
}

// TestServe checks the real listener path with addr ":0".
func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("serving").Set(1)
	addr, stop, err := ServeWith("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "serving 1") {
		t.Errorf("metrics body missing gauge:\n%s", body)
	}
}
