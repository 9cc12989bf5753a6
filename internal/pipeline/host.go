package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
)

// Host is what a graph-running command does around its graph, written
// once: journal file, registry, flight recorder with its SIGUSR1 dump,
// Runner, HTTP surface, signal context, the run, closing the graph's
// stores and the trace export. profiler and iec104live keep their
// flags, their graph and what they print.
type Host struct {
	// Graph declares what to run; rec is nil unless TracePath is set.
	Graph func(rec *trace.Recorder) (*Config, map[string]any)
	// JournalPath, when set, receives every pipeline's events as JSONL.
	JournalPath string
	// Addr, when set, serves /metrics, every segment endpoint under
	// /pipelines/{p}/... and the graph's first analyzer at the root —
	// its engine's /profile, /statusz, /readyz (+ /drift, /query), the
	// URL tree cmd/unchartedtop polls. The graph view is at
	// /pipelines/{p}/statusz, and at /statusz when there is no analyzer.
	Addr string
	// TracePath, when set, arms the flight recorder (1 in TraceSample
	// span starts per lane) and receives a Chrome trace_event file after
	// the run, or on SIGUSR1.
	TracePath   string
	TraceSample int
	// Before runs once the graph is built and served, before it starts;
	// an error aborts the host. After runs when the graph has drained
	// and its stores are closed, the HTTP surface still up, and returns
	// the command's exit code.
	Before func(*Hosted) error
	After  func(*Hosted) int
}

// Hosted is the graph as Before and After see it.
type Hosted struct {
	Runner   *Runner
	Registry *obs.Registry
	Journal  *obs.Journal // nil without a JournalPath
	Addr     net.Addr     // bound HTTP address; nil without a Host.Addr
	// Set for After: the graph's terminal error (Run joined with Close)
	// and its wall time. Whether the run was whole is its analyzer's
	// (AnalyzerSegment.Whole).
	Err     error
	Elapsed time.Duration
}

// Run hosts the graph until its inputs are exhausted or SIGINT/SIGTERM
// drains it, and returns the process exit code: After's — the graph's
// own error is its to judge — unless the host itself was in trouble,
// which exits 1: setup that failed (After is then not called), or a
// trace export or journal write that failed afterwards.
func (h Host) Run() int {
	code, err := h.run()
	if err != nil {
		log.Print(err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func (h Host) run() (code int, err error) {
	var journal *obs.Journal
	if h.JournalPath != "" {
		jf, err := os.Create(h.JournalPath)
		if err != nil {
			return 0, err
		}
		defer jf.Close()
		journal = obs.NewJournal(jf)
	}
	reg := obs.NewRegistry()
	var rec *trace.Recorder
	if h.TracePath != "" {
		rec = trace.New(trace.Config{SampleEvery: h.TraceSample, Registry: reg})
		defer rec.DumpOnSIGUSR1(h.TracePath, log.Printf)()
		log.Printf("flight recorder armed: sampling 1 in %d spans, SIGUSR1 dumps %s", h.TraceSample, h.TracePath)
	}

	graph, hooks := h.Graph(rec)
	runner, err := NewRunner(graph, Options{Registry: reg, Journal: journal, Hooks: hooks})
	if err != nil {
		return 0, err
	}
	res := &Hosted{Runner: runner, Registry: reg, Journal: journal}
	if h.Addr != "" {
		eps := runner.Endpoints()
		if a := runner.Analyzer(); a != nil {
			// The engine's /statusz shadows the graph view at the root.
			for path, hd := range a.Endpoints() {
				eps[path] = hd
			}
		}
		addr, shutdown, err := obs.ServeWith(h.Addr, reg, journal, eps)
		if err != nil {
			return 0, errors.Join(err, runner.Close())
		}
		defer shutdown()
		res.Addr = addr
		log.Printf("serving /metrics, /statusz and /pipelines/... on http://%s/", addr)
	}
	if h.Before != nil {
		if err := h.Before(res); err != nil {
			return 0, errors.Join(err, runner.Close())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	res.Err = runner.Run(ctx)
	res.Elapsed = time.Since(start)
	res.Err = errors.Join(res.Err, runner.Close())

	if rec != nil {
		if err = rec.WriteChromeTraceFile(h.TracePath); err != nil {
			err = fmt.Errorf("trace export failed: %w", err)
		} else {
			log.Printf("wrote Chrome trace to %s (open in chrome://tracing or Perfetto)", h.TracePath)
		}
	}
	code = h.After(res)
	if jerr := journal.Err(); jerr != nil {
		err = errors.Join(err, fmt.Errorf("journal write failed: %w", jerr))
	}
	return code, err
}
