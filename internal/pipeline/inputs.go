package pipeline

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

func init() {
	Register(Spec{
		Kind: "pcap",
		Role: RoleInput,
		Out:  PortPackets,
		Doc:  "read finished captures (a file, or every *.pcap/*.pcapng in a directory, sorted)",
		Params: []ParamSpec{
			{Name: "path", Type: ParamString, Required: true, Doc: "capture file or directory"},
			{Name: "batch", Type: ParamInt, Default: 64, Doc: "packets per emitted message"},
			{Name: "speed", Type: ParamFloat, Default: 0.0, Doc: "replay pacing (60 = one captured minute per wall second; 0 = as fast as possible; single file only)"},
			{Name: "readers", Type: ParamInt, Default: 0, Doc: "parallel segment readers: hand the capture to the consuming analyzer for N-reader ingest (0 = decode inline; needs a single unpaced file and exactly one analyzer consumer)"},
		},
		Build: buildPCAPInput,
	})
	Register(Spec{
		Kind: "follow",
		Role: RoleInput,
		Out:  PortPackets,
		Doc:  "tail a growing classic-pcap capture (never EOF; stops on drain)",
		Params: []ParamSpec{
			{Name: "path", Type: ParamString, Required: true, Doc: "capture file being written"},
			{Name: "batch", Type: ParamInt, Default: 64, Doc: "packets per emitted message"},
			{Name: "poll", Type: ParamDuration, Default: 25 * time.Millisecond, Doc: "sleep at the write frontier"},
		},
		Build: buildFollowInput,
	})
	Register(Spec{
		Kind: "sim",
		Role: RoleInput,
		Out:  PortPackets,
		Doc:  "feed the in-process grid simulator, optionally with an injected mid-feed attack",
		Params: []ParamSpec{
			{Name: "year", Type: ParamInt, Default: 1, Doc: "capture campaign to simulate (1 or 2)"},
			{Name: "seed", Type: ParamInt, Default: 1, Doc: "simulation seed"},
			{Name: "duration", Type: ParamDuration, Default: 2 * time.Minute, Doc: "simulated feed length"},
			{Name: "speed", Type: ParamFloat, Default: 0.0, Doc: "replay pacing (60 = one simulated minute per wall second; 0 = as fast as possible)"},
			{Name: "attack", Type: ParamString, Default: "", Doc: "inject an attack mid-feed: recon, breaker or setpoint"},
			{Name: "modbus", Type: ParamBool, Default: false, Doc: "add a Modbus/TCP polling association to the simulated tap"},
			{Name: "fault_timeout", Type: ParamFloat, Default: 0.0, Doc: "probability a device response is dropped (lossy field link)"},
			{Name: "fault_shortread", Type: ParamFloat, Default: 0.0, Doc: "probability a frame is torn across two TCP segments"},
			{Name: "batch", Type: ParamInt, Default: 64, Doc: "packets per emitted message"},
			{Name: "poll", Type: ParamDuration, Default: 25 * time.Millisecond, Doc: "sleep while paced replay has nothing due"},
		},
		Build: buildSimInput,
	})
	Register(Spec{
		Kind: "probe",
		Role: RoleInput,
		Out:  PortProfiles,
		Doc:  "receive drift-codec partials POSTed by remote probes at /{id}/partial and emit the merged fleet snapshot",
		Params: []ParamSpec{
			{Name: "cluster_k", Type: ParamInt, Default: 0, Doc: "session clustering K for the merged profile (0 = off)"},
		},
		Build: buildProbeInput,
	})
}

// slabSize sets how many decoded record bytes share one backing
// allocation in batcher.Raw.
const slabSize = 256 << 10

// batcher is the packet inputs' stream.RecordSink: it groups the
// records stream.Pull hands it into emitted messages. Emitted slices
// are handed to consumers (who share them read-only across a
// fan-out), so a fresh slice backs every message. Emit blocks rather
// than fails, so no method ever reports a dead context.
type batcher struct {
	emit Emit
	size int
	buf  []pcap.Packet
	slab []byte
}

// Raw implements stream.RecordSink with amortized allocations: the
// record is copied onto a shared slab (a fresh slab roughly every
// 256 KiB, never reused) and decoded in place, so the emitted packets
// — whose layer slices alias the slab — stay valid for every fan-out
// consumer at one allocation per slab instead of one per packet.
// Undecodable records are skipped, matching the offline path.
func (b *batcher) Raw(ctx context.Context, data []byte, ci pcap.CaptureInfo, link pcap.LinkType) bool {
	if len(b.slab)+len(data) > cap(b.slab) {
		n := slabSize
		if len(data) > n {
			n = len(data)
		}
		b.slab = make([]byte, 0, n)
	}
	off := len(b.slab)
	b.slab = append(b.slab, data...)
	if pkt, err := pcap.DecodePacket(link, ci, b.slab[off:len(b.slab):len(b.slab)]); err == nil {
		b.Packet(ctx, pkt)
	}
	return true
}

// Packet implements stream.RecordSink.
func (b *batcher) Packet(ctx context.Context, p pcap.Packet) bool {
	if b.buf == nil {
		b.buf = make([]pcap.Packet, 0, b.size)
	}
	b.buf = append(b.buf, p)
	if len(b.buf) >= b.size {
		b.Flush(ctx)
	}
	return true
}

// Flush implements stream.RecordSink.
func (b *batcher) Flush(context.Context) bool {
	if len(b.buf) > 0 {
		b.emit(Msg{Pkts: b.buf})
		b.buf = nil
	}
	return true
}

// pump drives one opened source into emitted messages with the shared
// read loop, then closes it. A canceled ctx is a drain, not an error.
func pump(ctx context.Context, src stream.Source, emit Emit, batch int, poll time.Duration) error {
	err := stream.Pull(ctx, src, poll, nil, &batcher{emit: emit, size: batch})
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// PCAPInput streams one or more finished captures. With readers > 0 it
// does not decode at all: the single capture file is handed whole to
// the consuming analyzer (Msg.Src), whose engine ingests it with N
// parallel segment readers.
type PCAPInput struct {
	files   []string
	batch   int
	speed   float64
	readers int
}

func buildPCAPInput(bc BuildCtx) (Segment, error) {
	path := bc.Params.Str("path")
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	s := &PCAPInput{batch: bc.Params.Int("batch"), speed: bc.Params.Float("speed"), readers: bc.Params.Int("readers")}
	if s.batch < 1 {
		s.batch = 64
	}
	if s.readers > 0 && s.speed > 0 {
		return nil, fmt.Errorf("readers and speed are mutually exclusive: paced replay is inherently sequential")
	}
	if !fi.IsDir() {
		s.files = []string{path}
		return s, nil
	}
	if s.readers > 0 {
		return nil, fmt.Errorf("readers needs a single capture file, %s is a directory", path)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".pcap", ".pcapng":
			s.files = append(s.files, filepath.Join(path, e.Name()))
		}
	}
	if len(s.files) == 0 {
		return nil, fmt.Errorf("no *.pcap or *.pcapng files in %s", path)
	}
	if s.speed > 0 && len(s.files) > 1 {
		return nil, fmt.Errorf("speed pacing needs a single capture file, %s holds %d", path, len(s.files))
	}
	sort.Strings(s.files)
	return s, nil
}

// Handoff reports whether this input hands its capture to the consumer
// as a whole source instead of decoding inline; the runner checks the
// receiving side can take it.
func (s *PCAPInput) Handoff() bool { return s.readers > 0 }

// Run implements Segment.
func (s *PCAPInput) Run(ctx context.Context, _ <-chan Msg, emit Emit) error {
	for _, path := range s.files {
		feed, err := stream.OpenSource(stream.SourceSpec{Kind: "pcap", Path: path, Speed: s.speed})
		if err != nil {
			return err
		}
		if s.readers > 0 {
			// The consuming analyzer reads (and closes) the capture itself.
			emit(Msg{Src: feed.Source})
			return nil
		}
		if err := pump(ctx, feed.Source, emit, s.batch, 25*time.Millisecond); err != nil || ctx.Err() != nil {
			return err
		}
	}
	return nil
}

// FeedInput streams one source opened at build time: a growing capture
// being tailed (follow — never EOF, runs until the drain) or a
// synthesized grid capture, optionally with an Industroyer-style
// attack injected mid-feed (sim).
type FeedInput struct {
	feed  *stream.Feed
	batch int
	poll  time.Duration
}

func buildFollowInput(bc BuildCtx) (Segment, error) {
	return buildFeedInput(bc, stream.SourceSpec{Kind: "follow", Path: bc.Params.Str("path")})
}

func buildSimInput(bc BuildCtx) (Segment, error) {
	spec := stream.SimSpec{
		Year:     bc.Params.Int("year"),
		Seed:     int64(bc.Params.Int("seed")),
		Duration: bc.Params.Dur("duration"),
		Modbus:   bc.Params.Bool("modbus"),
		Attack:   bc.Params.Str("attack"),
	}
	spec.Faults.TimeoutProb = bc.Params.Float("fault_timeout")
	spec.Faults.ShortReadProb = bc.Params.Float("fault_shortread")
	return buildFeedInput(bc, stream.SourceSpec{Kind: "sim", Speed: bc.Params.Float("speed"), Sim: spec})
}

func buildFeedInput(bc BuildCtx, spec stream.SourceSpec) (Segment, error) {
	feed, err := stream.OpenSource(spec)
	if err != nil {
		return nil, err
	}
	if spec.Sim.Attack != "" {
		bc.Env.Logf("segment %s: injected %s attack: %d packets at +%s", bc.ID, feed.Attack, feed.Injected, spec.Sim.Duration/2)
	}
	return &FeedInput{feed: feed, batch: bc.Params.Int("batch"), poll: bc.Params.Dur("poll")}, nil
}

// Trace exposes a sim feed's generated records (presets write the
// -pcap cross-check capture from it).
func (s *FeedInput) Trace() *scadasim.Trace { return s.feed.Trace }

// Network exposes a sim feed's simulated topology.
func (s *FeedInput) Network() *topology.Network { return s.feed.Network }

// Run implements Segment.
func (s *FeedInput) Run(ctx context.Context, _ <-chan Msg, emit Emit) error {
	return pump(ctx, s.feed.Source, emit, s.batch, s.poll)
}

// ProbeInput is the remote-probe receiver: probes POST drift-codec
// profiles (the same wire format, and the same stream.ProbeSet, as the
// control-room service) to /{id}/partial, and every accepted post
// re-merges the fleet and emits one Snapshot downstream.
type ProbeInput struct {
	env      *Env
	id       string
	clusterK int
	probes   stream.ProbeSet
	dirty    chan struct{}
}

func buildProbeInput(bc BuildCtx) (Segment, error) {
	s := &ProbeInput{
		env:      bc.Env,
		id:       bc.ID,
		clusterK: bc.Params.Int("cluster_k"),
		dirty:    make(chan struct{}, 1),
	}
	bc.Env.Handle("/"+bc.ID+"/partial", http.HandlerFunc(s.handlePartial))
	return s, nil
}

func (s *ProbeInput) handlePartial(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a drift-codec profile", http.StatusMethodNotAllowed)
		return
	}
	ack, code, err := s.probes.Accept(req)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	select {
	case s.dirty <- struct{}{}:
	default:
	}
	s.env.Journal.Log(time.Now(), obs.EventPartial, ack.Probe, map[string]any{
		"pipeline": s.env.Pipeline,
		"segment":  s.id,
		"packets":  ack.Packets,
		"probes":   ack.Probes,
		"version":  ack.Version,
	})
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\"probe\":%q,\"probes\":%d,\"version\":%d}\n", ack.Probe, ack.Probes, ack.Version)
}

// snapshot merges the current probe set, nil while it is empty.
func (s *ProbeInput) snapshot() *Snapshot {
	prof, merged := s.probes.Profile(s.clusterK, 1202)
	if prof == nil {
		return nil
	}
	return &Snapshot{Seq: prof.Seq, Partial: merged, Profile: prof}
}

// Run implements Segment: it emits one merged snapshot per accepted
// post until the drain, then a final merged state.
func (s *ProbeInput) Run(ctx context.Context, _ <-chan Msg, emit Emit) error {
	for {
		select {
		case <-ctx.Done():
			if sn := s.snapshot(); sn != nil {
				sn.Final = true
				emit(Msg{Snap: sn})
			}
			return nil
		case <-s.dirty:
			if sn := s.snapshot(); sn != nil {
				emit(Msg{Snap: sn})
			}
		}
	}
}
