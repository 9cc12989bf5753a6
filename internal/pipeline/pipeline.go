// Package pipeline is the composable runtime that turns the repo's
// analysis capabilities into declared segment graphs: a JSON/JSONC
// config names pipelines as DAGs of registered segments — inputs
// (finished captures, growing captures, the in-process simulator),
// filters (per-station, per-ASDU-type, per-IP-pair, sampling, tee),
// analysis stages (the sharded core analyzer, the online IDS, the
// drift comparator, the historian recorder) and outputs (snapshot HTTP
// endpoints, JSON/JSONL/CSV export, a JSONL journal, alert webhooks) —
// and one process runs a whole fleet's worth of them side by side
// (cmd/unchartedd hosts each as a tenant, all in one Runner).
//
// Segments compose behind channels of Msg values: a packets edge
// carries decoded packet batches, a profiles edge carries published
// analysis snapshots, an alerts edge carries IDS/drift alerts. Edges
// are bounded, sends block (lossless backpressure, with stall
// accounting per segment), and every segment gets its own
// pipeline/segment-labeled obs metric series. One edge carries no
// packets: an input that reads a single source and feeds nothing but
// one analyzer hands the source to that analyzer's engine (the runner
// decides from the graph's topology; see Msg.Src).
//
// This package is also the one place an engine is built and run. The
// analyzer segment is the only caller of stream.New; the
// single-analyzer front ends (profiler, iec104live, a
// control-room tenant's shorthand) are presets over SourceGraph, the
// input → analyzer pair; and Host is what every graph-running command
// does around its graph.
package pipeline

import (
	"context"
	"net/http"
	"sort"

	"uncharted/internal/core"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/stream"
)

// PortType names what flows over an edge. A segment declares one In
// and one Out type; the config validator rejects edges whose endpoint
// types disagree.
type PortType string

// Port types.
const (
	// PortNone marks a missing port: inputs have no In, terminal
	// segments have no Out.
	PortNone PortType = ""
	// PortPackets edges carry batches of decoded packets.
	PortPackets PortType = "packets"
	// PortProfiles edges carry published analysis snapshots.
	PortProfiles PortType = "profiles"
	// PortAlerts edges carry IDS and drift alerts.
	PortAlerts PortType = "alerts"
)

// Role groups segments in the catalog: where they sit in a graph.
type Role string

// Roles.
const (
	RoleInput    Role = "input"
	RoleFilter   Role = "filter"
	RoleAnalysis Role = "analysis"
	RoleOutput   Role = "output"
)

// Snapshot is one published analysis state riding a profiles edge.
type Snapshot struct {
	// Seq is the publisher's snapshot sequence number.
	Seq int
	// Final marks the last snapshot of a drained publisher: the exact
	// end-of-stream state.
	Final bool
	// Partial is the merged analyzer state behind the snapshot.
	Partial core.Partial
	// Profile is the derived rolling profile document.
	Profile *stream.Profile
}

// Msg is the value flowing over an edge. Exactly one field is set,
// matching the edge's port type.
type Msg struct {
	Pkts  []pcap.Packet
	Snap  *Snapshot
	Alert *ids.Alert
	// Src is a source handoff riding a packets edge: an input that reads
	// one source, wired to a single consumer that can run it, hands the
	// source itself over instead of decoding inline (the runner decides
	// from the graph's topology), so the consumer's engine reads it with
	// its own readers — N parallel ones over a seekable capture. The
	// receiver owns Src and must Close it.
	Src stream.Source
}

// packets reports how many packets ride this message (for metrics).
func (m Msg) packets() int { return len(m.Pkts) }

// Emit forwards a message to every downstream consumer. Sends block
// when a consumer's queue is full (lossless backpressure; the stall is
// counted against the emitting segment).
type Emit func(Msg)

// Segment is one running node of a pipeline graph. Run processes
// until in is closed (inputs receive a nil in and run until their
// source is exhausted or ctx is canceled), emitting downstream via
// emit, and returns the segment's terminal error. The runtime closes
// downstream edges when Run returns.
type Segment interface {
	Run(ctx context.Context, in <-chan Msg, emit Emit) error
}

// Env is the per-pipeline environment segments build against: the
// pipeline-labeled metric registry, the shared journal, a logger and
// the pipeline's HTTP mount table.
type Env struct {
	// Pipeline is the owning pipeline's name.
	Pipeline string
	// Registry is a pipeline-labeled view of the process registry;
	// never nil (a throwaway registry is supplied when none is given).
	Registry *obs.Registry
	// Journal is the shared process journal; may be nil (obs.Journal
	// methods are nil-safe).
	Journal *obs.Journal
	// Logf logs operator-facing lines; never nil.
	Logf func(format string, args ...any)

	handlers map[string]http.Handler
}

// Handle registers an HTTP handler on the pipeline's mount table.
// Paths must begin with "/"; Host and cmd/unchartedd serve them under
// /pipelines/{pipeline}{path}. Registering a taken path overwrites it.
func (e *Env) Handle(path string, h http.Handler) {
	if e.handlers == nil {
		e.handlers = make(map[string]http.Handler)
	}
	e.handlers[path] = h
}

// Handlers returns the pipeline's mount table, sorted for determinism.
func (e *Env) Handlers() map[string]http.Handler { return e.handlers }

// BuildCtx is what a Spec.Build receives: the validated params, the
// pipeline environment and the segment's identity.
type BuildCtx struct {
	// Pipeline / ID locate the segment in the config.
	Pipeline string
	ID       string
	// Params holds the validated segment parameters.
	Params Params
	// Env is the owning pipeline's environment.
	Env *Env
	// Hook is the programmatic override installed for this segment via
	// Options.Hooks (presets use it to inject in-process observers and
	// alert sinks that have no config-file representation); nil
	// otherwise.
	Hook any
}

// handlerPaths returns the sorted mount paths (for /statusz).
func (e *Env) handlerPaths() []string {
	paths := make([]string, 0, len(e.handlers))
	for p := range e.handlers {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}
