package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"uncharted/internal/obs"
)

// Runner metric names, all labeled {pipeline, segment}.
const (
	// MetricMsgs counts messages, labeled dir=in|out.
	MetricMsgs = "uncharted_pipeline_msgs_total"
	// MetricPackets counts packets riding those messages, same labels.
	MetricPackets = "uncharted_pipeline_packets_total"
	// MetricStalls counts blocked sends (a downstream queue was full).
	MetricStalls = "uncharted_pipeline_stalls_total"
	// MetricStallSeconds accumulates time spent blocked on full queues.
	MetricStallSeconds = "uncharted_pipeline_stall_seconds"
	// MetricQueueDepth gauges a segment's input queue occupancy.
	MetricQueueDepth = "uncharted_pipeline_queue_depth"
)

// edgeDepth is every edge's buffer in messages.
const edgeDepth = 64

// Options parameterises a Runner.
type Options struct {
	// Registry / Journal instrument every pipeline; both optional.
	Registry *obs.Registry
	Journal  *obs.Journal
	// Logf receives operator-facing lines (default log.Printf).
	Logf func(format string, args ...any)
	// Hooks installs programmatic overrides keyed "pipeline/segment";
	// the matching BuildCtx.Hook receives the value. Presets use this
	// for in-process observers and alert sinks that no config file can
	// express.
	Hooks map[string]any
}

// node states, published for /statusz.
const (
	nodeIdle int32 = iota
	nodeRunning
	nodeDone
	nodeFailed
)

type node struct {
	id   string
	kind string
	spec Spec
	seg  Segment
	from []string

	in        chan Msg
	producers atomic.Int32
	consumers []*node
	// fedByCut: a producer failed or was drained short of its input's
	// end, or was itself fed by one that was, so this node's input ended
	// early (Msg.Cut).
	fedByCut atomic.Bool
	// source, on both ends of a handed-off edge, is its consumer.
	source sourceTaker

	state atomic.Int32
	errMu sync.Mutex
	err   error

	msgsIn, msgsOut *obs.Counter
	pktsIn, pktsOut *obs.Counter
	stalls          *obs.Counter
	stallSecs       *obs.Gauge
	queueDepth      *obs.Gauge
}

func (n *node) setErr(err error) {
	n.errMu.Lock()
	n.err = err
	n.errMu.Unlock()
}

func (n *node) Err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.err
}

// sourceGiver is a packet input that can hand its source (Msg.Src) to
// its consumer instead of decoding it inline: oneSource reports that it
// reads a single stream.Source, armHandoff makes Run emit it and return.
type sourceGiver interface {
	oneSource() bool
	armHandoff()
}

// sourceTaker is a packets consumer that runs a Msg.Src itself;
// SourcePackets is how many packets it has ingested from it (the edge's
// own counters stay 0).
type sourceTaker interface {
	SourcePackets() int64
}

type pipe struct {
	name  string
	env   *Env
	nodes []*node
	byID  map[string]*node
}

// Runner hosts every pipeline of a validated config in one process:
// built segments, wired edges, shared metrics. Create with NewRunner,
// drive with Run.
type Runner struct {
	opts  Options
	pipes []*pipe
}

// NewRunner validates cfg, builds every segment (files open, stores
// allocate) and wires the edges. A failed build aborts construction and
// closes every segment already built.
func NewRunner(cfg *Config, opts Options) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	r := &Runner{opts: opts}
	for pi := range cfg.Pipelines {
		pc := &cfg.Pipelines[pi]
		env := &Env{
			Pipeline: pc.Name,
			Registry: reg.With("pipeline", pc.Name),
			Journal:  opts.Journal,
			Logf: func(format string, args ...any) {
				opts.Logf("["+pc.Name+"] "+format, args...)
			},
		}
		p := &pipe{name: pc.Name, env: env, byID: make(map[string]*node, len(pc.Nodes))}
		r.pipes = append(r.pipes, p)
		for ni := range pc.Nodes {
			nc := &pc.Nodes[ni]
			spec, _ := Lookup(nc.Kind)
			params, err := parseParams(spec.Params, nc.Params)
			if err != nil {
				// Unreachable after Validate; belt and braces.
				return nil, errors.Join(fmt.Errorf("pipeline %s segment %s: %w", pc.Name, nc.ID, err), r.Close())
			}
			seg, err := spec.Build(BuildCtx{
				Pipeline: pc.Name,
				ID:       nc.ID,
				Params:   params,
				Env:      env,
				Hook:     opts.Hooks[pc.Name+"/"+nc.ID],
			})
			if err != nil {
				return nil, errors.Join(fmt.Errorf("pipeline %s segment %s (%s): %w", pc.Name, nc.ID, nc.Kind, err), r.Close())
			}
			sreg := env.Registry.With("segment", nc.ID)
			n := &node{
				id:         nc.ID,
				kind:       nc.Kind,
				spec:       spec,
				seg:        seg,
				from:       nc.From,
				msgsIn:     sreg.Counter(MetricMsgs, "dir", "in"),
				msgsOut:    sreg.Counter(MetricMsgs, "dir", "out"),
				pktsIn:     sreg.Counter(MetricPackets, "dir", "in"),
				pktsOut:    sreg.Counter(MetricPackets, "dir", "out"),
				stalls:     sreg.Counter(MetricStalls),
				stallSecs:  sreg.Gauge(MetricStallSeconds),
				queueDepth: sreg.Gauge(MetricQueueDepth),
			}
			if spec.In != PortNone {
				n.in = make(chan Msg, edgeDepth)
			}
			p.nodes = append(p.nodes, n)
			p.byID[nc.ID] = n
		}
		// Wire edges: each consumer registers on its producers.
		for _, n := range p.nodes {
			for _, from := range n.from {
				up := p.byID[from]
				up.consumers = append(up.consumers, n)
				n.producers.Add(1)
			}
		}
		// Handoff by topology: an input that reads exactly one source and
		// is the only producer of its only consumer, which can run a
		// source, gives it away whole. Anything else (fan-out, a filter in
		// between, a capture directory) decodes inline.
		for _, n := range p.nodes {
			g, ok := n.seg.(sourceGiver)
			if !ok || !g.oneSource() || len(n.consumers) != 1 || n.consumers[0].producers.Load() != 1 {
				continue
			}
			c := n.consumers[0]
			if taker, ok := c.seg.(sourceTaker); ok {
				g.armHandoff()
				n.source, c.source = taker, taker
			}
		}
	}
	return r, nil
}

// Run drives every pipeline concurrently until all inputs exhaust and
// the graphs drain, or ctx is canceled (inputs stop, the drain still
// completes). The returned error joins every segment failure, labeled
// with its pipeline and id.
func (r *Runner) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for _, p := range r.pipes {
		for _, n := range p.nodes {
			wg.Add(1)
			go func(p *pipe, n *node) {
				defer wg.Done()
				r.runNode(ctx, p, n)
			}(p, n)
		}
	}
	wg.Wait()

	var errs []error
	for _, p := range r.pipes {
		for _, n := range p.nodes {
			if err := n.Err(); err != nil {
				errs = append(errs, fmt.Errorf("pipeline %s segment %s: %w", p.name, n.id, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Close releases what segments keep open past the end of Run — an
// analyzer's historian goes on answering /query after its capture
// ended — and joins the failures. Whoever stops the host calls it.
func (r *Runner) Close() error {
	var errs []error
	for _, p := range r.pipes {
		for _, n := range p.nodes {
			if c, ok := n.seg.(io.Closer); ok {
				if err := c.Close(); err != nil {
					errs = append(errs, fmt.Errorf("pipeline %s segment %s: %w", p.name, n.id, err))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// Analyzer returns the first analyzer segment in config order — the
// one a single-analyzer front end (a preset command, a service tenant)
// binds its profile surface to — or nil when no graph has one.
func (r *Runner) Analyzer() *AnalyzerSegment {
	for _, p := range r.pipes {
		for _, n := range p.nodes {
			if a, ok := n.seg.(*AnalyzerSegment); ok {
				return a
			}
		}
	}
	return nil
}

// runNode wraps one segment's Run with metrics, edge close
// propagation and failure drain.
func (r *Runner) runNode(ctx context.Context, p *pipe, n *node) {
	n.state.Store(nodeRunning)
	in := r.meterIn(n)
	err := n.seg.Run(ctx, in, r.emitFor(n))
	short := err == errDrainedShort
	if short {
		err = nil
	}
	if err != nil {
		n.setErr(err)
		n.state.Store(nodeFailed)
		p.env.Logf("segment %s (%s) failed: %v", n.id, n.kind, err)
	} else {
		n.state.Store(nodeDone)
	}
	// A segment that bailed early must keep draining its queue, or its
	// producers would block forever on a full edge.
	if in != nil {
		go func() {
			for range in {
			}
		}()
	}
	// Release the downstream edges: the last producer to finish closes
	// the consumer's queue, which is its EOF. An input that ended short
	// is passed on first, and said on the edge before it closes, so a
	// consumer's EOF is not taken for the end of its input.
	cut := err != nil || short || n.fedByCut.Load()
	for _, c := range n.consumers {
		if cut {
			c.fedByCut.Store(true)
		}
		if c.producers.Add(-1) == 0 {
			if c.fedByCut.Load() {
				c.in <- Msg{Cut: true}
			}
			close(c.in)
		}
	}
}

// meterIn wraps a node's input queue with in-side accounting.
func (r *Runner) meterIn(n *node) <-chan Msg {
	if n.in == nil {
		return nil
	}
	metered := make(chan Msg)
	go func() {
		defer close(metered)
		for m := range n.in {
			n.msgsIn.Inc()
			n.pktsIn.Add(int64(m.packets()))
			n.queueDepth.Set(float64(len(n.in)))
			metered <- m
		}
	}()
	return metered
}

// emitFor builds a node's Emit: broadcast to every consumer, blocking
// on full queues with stall accounting. Terminal nodes get a no-op.
func (r *Runner) emitFor(n *node) Emit {
	if len(n.consumers) == 0 {
		return func(Msg) {}
	}
	return func(m Msg) {
		n.msgsOut.Inc()
		n.pktsOut.Add(int64(m.packets()))
		for _, c := range n.consumers {
			select {
			case c.in <- m:
			default:
				// Queue full: a real backpressure stall begins here.
				n.stalls.Inc()
				start := time.Now()
				c.in <- m
				n.stallSecs.Add(time.Since(start).Seconds())
			}
		}
	}
}

// Segment returns a built segment by pipeline name and id, or nil.
// Presets use it to reach concrete segment types (engine access, alert
// sinks) after construction.
func (r *Runner) Segment(pipeline, id string) Segment {
	for _, p := range r.pipes {
		if p.name == pipeline {
			if n := p.byID[id]; n != nil {
				return n.seg
			}
		}
	}
	return nil
}

// Endpoints assembles the full HTTP surface: every segment-registered
// handler under /pipelines/{pipeline}{path}, one
// /pipelines/{pipeline}/statusz per pipeline, and a combined /statusz
// showing the live graph of every pipeline.
func (r *Runner) Endpoints() map[string]http.Handler {
	eps := map[string]http.Handler{
		"/statusz": newStatusHandler(r.status),
	}
	for _, p := range r.pipes {
		p := p
		for path, h := range p.env.Handlers() {
			eps["/pipelines/"+p.name+path] = h
		}
		eps["/pipelines/"+p.name+"/statusz"] = newStatusHandler(func() []PipelineStatus {
			return []PipelineStatus{r.pipeStatus(p)}
		})
	}
	return eps
}
