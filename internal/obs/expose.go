package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one TYPE line per family, HELP
// where registered, histograms with cumulative le buckets plus _sum
// and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	o := r.owner()
	o.mu.RLock()
	help := make(map[string]string, len(o.help))
	for k, v := range o.help {
		help[k] = v
	}
	o.mu.RUnlock()

	var b strings.Builder
	seen := map[string]bool{}
	header := func(name string, typ MetricType) {
		if seen[name] {
			return
		}
		seen[name] = true
		if h := help[name]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(h, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
	}
	for _, c := range snap.Counters {
		header(c.Name, TypeCounter)
		fmt.Fprintf(&b, "%s%s %d\n", c.Name, labelString(c.Labels), c.Value)
	}
	for _, g := range snap.Gauges {
		header(g.Name, TypeGauge)
		fmt.Fprintf(&b, "%s%s %s\n", g.Name, labelString(g.Labels), formatFloat(g.Value))
	}
	for _, h := range snap.Histograms {
		header(h.Name, TypeHistogram)
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n",
				h.Name, labelString(append(append([]string(nil), h.Labels...), "le", formatFloat(bound))), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(&b, "%s_bucket%s %d\n",
			h.Name, labelString(append(append([]string(nil), h.Labels...), "le", "+Inf")), cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", h.Name, labelString(h.Labels), formatFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", h.Name, labelString(h.Labels), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// varsPayload is the expvar-style JSON document served at /debug/vars.
type varsPayload struct {
	Metrics        Snapshot            `json:"metrics"`
	Journal        map[EventType]int64 `json:"journal_events,omitempty"`
	JournalDropped int64               `json:"journal_dropped,omitempty"`
	MemStats       *runtime.MemStats   `json:"memstats,omitempty"`
}

// WriteJSON renders an expvar-style JSON snapshot of the registry
// (plus runtime memstats, mirroring the stdlib expvar handler).
// journal may be nil.
func (r *Registry) WriteJSON(w io.Writer, journal *Journal) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return WriteIndentedJSON(w, varsPayload{
		Metrics:        r.Snapshot(),
		Journal:        journal.Counts(),
		JournalDropped: journal.Dropped(),
		MemStats:       &ms,
	})
}

// HandlerWith serves the registry over HTTP:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar-style JSON (metrics + memstats)
//	/debug/pprof/  the runtime profiler endpoints
//	/healthz       liveness: 200 as long as the process serves
//	/              a plain-text index
//
// journal may be nil; when set, its per-type event counts are included
// in the JSON document.
//
// extra adds caller-supplied routes (path → handler), which appear in
// the index page; they must not shadow the built-in ones.
func HandlerWith(r *Registry, journal *Journal, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		r.WriteJSON(w, journal)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		io.WriteString(w, `{"status":"ok"}`+"\n")
	})
	index := "uncharted observability endpoint\n\n" +
		"/metrics       Prometheus text format\n" +
		"/debug/vars    expvar-style JSON\n" +
		"/debug/pprof/  runtime profiler\n" +
		"/healthz       liveness\n"
	paths := make([]string, 0, len(extra))
	for p := range extra {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		mux.Handle(p, extra[p])
		index += fmt.Sprintf("%-12s (application route)\n", p)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, index)
	})
	return mux
}

// PickFormat resolves a query endpoint's ?format= parameter: an empty
// parameter picks def, a listed value picks itself, anything else
// returns ok=false after writing a 400 JSON error. Every query
// endpoint negotiates through this one helper so the surfaces cannot
// drift.
func PickFormat(w http.ResponseWriter, req *http.Request, def string, allowed ...string) (string, bool) {
	f := req.URL.Query().Get("format")
	if f == "" {
		return def, true
	}
	if f == def {
		return f, true
	}
	for _, a := range allowed {
		if f == a {
			return f, true
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf("unsupported format %q (want %s)", f, strings.Join(append([]string{def}, allowed...), "|")),
	})
	return "", false
}

// ReadyHandler builds a /readyz-style readiness endpoint from a check
// function: 200 with {"ready":true} when check says so, 503 with the
// reason otherwise (e.g. "draining", "engine not started").
func ReadyHandler(check func() (bool, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		ready, reason := check()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason,omitempty"`
		}{ready, reason})
	})
}

// ServeWith starts an HTTP server for HandlerWith(r, journal, extra)
// on addr and returns the bound address (useful with ":0") plus a
// shutdown function. The server runs until the shutdown function is
// called.
func ServeWith(addr string, r *Registry, journal *Journal, extra map[string]http.Handler) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: HandlerWith(r, journal, extra)}
	go srv.Serve(ln)
	return ln.Addr(), srv.Close, nil
}
