package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
)

func init() {
	Register(Spec{
		Kind: "pcap",
		Role: RoleInput,
		Out:  PortPackets,
		Doc:  "read finished captures (a file, or every *.pcap/*.pcapng in a directory, sorted); a single file feeding nothing but one analyzer is handed to that analyzer's engine whole",
		Params: []ParamSpec{
			{Name: "path", Type: ParamString, Required: true, Doc: "capture file or directory"},
			{Name: "speed", Type: ParamFloat, Default: 0.0, Doc: "replay pacing (60 = one captured minute per wall second; 0 = as fast as possible; single file only)"},
		},
		Build: buildPCAPInput,
	})
	Register(Spec{
		Kind: "follow",
		Role: RoleInput,
		Out:  PortPackets,
		Doc:  "tail a growing classic-pcap capture (never EOF; stops on drain); handed to the engine of an analyzer it alone feeds",
		Params: []ParamSpec{
			{Name: "path", Type: ParamString, Required: true, Doc: "capture file being written"},
		},
		Build: buildFollowInput,
	})
	Register(Spec{
		Kind: "sim",
		Role: RoleInput,
		Out:  PortPackets,
		Doc:  "feed the in-process grid simulator, optionally with an injected mid-feed attack; handed to the engine of an analyzer it alone feeds",
		Params: []ParamSpec{
			{Name: "year", Type: ParamInt, Default: 1, Doc: "capture campaign to simulate (1 or 2)"},
			{Name: "seed", Type: ParamInt, Default: 1, Doc: "simulation seed"},
			{Name: "duration", Type: ParamDuration, Default: 2 * time.Minute, Doc: "simulated feed length"},
			{Name: "speed", Type: ParamFloat, Default: 0.0, Doc: "replay pacing (60 = one simulated minute per wall second; 0 = as fast as possible)"},
			{Name: "attack", Type: ParamString, Default: "", Doc: "inject an attack mid-feed: recon, breaker or setpoint"},
			{Name: "modbus", Type: ParamBool, Default: false, Doc: "add a Modbus/TCP polling association to the simulated tap"},
			{Name: "fault_timeout", Type: ParamFloat, Default: 0.0, Doc: "probability a device response is dropped (lossy field link)"},
			{Name: "fault_shortread", Type: ParamFloat, Default: 0.0, Doc: "probability a frame is torn across two TCP segments"},
		},
		Build: buildSimInput,
	})
}

const (
	// slabSize sets how many decoded record bytes share one backing
	// allocation in batcher.Raw.
	slabSize = 256 << 10
	// inlineBatch is how many packets ride one message of an inline edge
	// and inlinePoll how long an inline input sleeps at a quiet point (a
	// tail's write frontier, a paced replay with nothing due) — the
	// engine's own values for a handed-off source.
	inlineBatch = stream.BatchSize
	inlinePoll  = stream.DefaultPollInterval
)

// batcher is the packet inputs' stream.RecordSink: it groups the
// records stream.Pull hands it into emitted messages. Emitted slices
// are handed to consumers (who share them read-only across a
// fan-out), so a fresh slice backs every message. Emit blocks rather
// than fails, so no method ever reports a dead context.
type batcher struct {
	emit Emit
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
		b.buf = make([]pcap.Packet, 0, inlineBatch)
	}
	b.buf = append(b.buf, p)
	if len(b.buf) >= inlineBatch {
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

// errDrainedShort is what an input returns when a drain stopped it
// before the end of a finite input: not a failure, but its consumers'
// input ended short (Msg.Cut).
var errDrainedShort = errors.New("drained before the end of the input")

// pump drives one opened source into emitted messages with the shared
// read loop, then closes it. A drain is not a failure: it is how a tail
// ends, and cuts any other source short (errDrainedShort).
func pump(ctx context.Context, src stream.Source, emit Emit) error {
	err := stream.Pull(ctx, src, inlinePoll, nil, &batcher{emit: emit})
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err != nil && ctx.Err() != nil {
		if tail(src) {
			return nil
		}
		return errDrainedShort
	}
	return nameFile(src, err)
}

// tail reports whether a drain is how src ends: a growing capture has
// no end of its own.
func tail(src stream.Source) bool {
	_, ok := src.(*stream.FollowSource)
	return ok
}

// nameFile prefixes the error of a run over a capture file with the
// file's path, whether the input read it inline (pump) or handed it to
// an analyzer's engine.
func nameFile(src stream.Source, err error) error {
	if fs, ok := src.(*stream.FileSource); ok && err != nil {
		return fmt.Errorf("%s: %w", fs.Path(), err)
	}
	return err
}

// PacketInput streams packet sources in order: one finished capture,
// one growing capture being tailed (follow — never EOF, runs until the
// drain), one synthesized grid feed, optionally with an
// Industroyer-style attack injected mid-feed (sim), or every capture of
// a directory. The first source is opened at build time. When it is the
// only one and the runner arms the handoff (see NewRunner), nothing is
// decoded here: the source goes whole to the consuming analyzer, whose
// engine reads — and closes — it itself.
type PacketInput struct {
	src   stream.Source
	trace *scadasim.Trace // a sim input's generated records
	// more is the rest of a capture directory, opened in turn. A
	// file's errors name it (nameFile), read inline or handed off.
	more    []string
	handoff bool
}

func buildPCAPInput(bc BuildCtx) (Segment, error) {
	path, speed := bc.Params.Str("path"), bc.Params.Float("speed")
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = nil
		for _, e := range entries {
			if ext := strings.ToLower(filepath.Ext(e.Name())); !e.IsDir() && (ext == ".pcap" || ext == ".pcapng") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no *.pcap or *.pcapng files in %s", path)
		}
		if speed > 0 && len(files) > 1 {
			return nil, fmt.Errorf("speed pacing needs a single capture file, %s holds %d", path, len(files))
		}
		sort.Strings(files)
	}
	// A finished capture is seekable — the engine may split it across
	// parallel segment readers — unless it is paced.
	fs, err := stream.NewFileSource(files[0])
	if err != nil {
		return nil, err
	}
	s := &PacketInput{src: fs, more: files[1:]}
	if speed > 0 {
		s.src = stream.NewReplaySource(fs, speed)
	}
	return s, nil
}

func buildFollowInput(bc BuildCtx) (Segment, error) {
	src, err := stream.NewFollowSource(bc.Params.Str("path"))
	if err != nil {
		return nil, err
	}
	return &PacketInput{src: src}, nil
}

func buildSimInput(bc BuildCtx) (Segment, error) {
	cfg := scadasim.DefaultConfig(campaign(bc.Params.Int("year")), int64(bc.Params.Int("seed")))
	if d := bc.Params.Dur("duration"); d > 0 {
		cfg.Duration = d
	}
	cfg.EnableModbus = bc.Params.Bool("modbus")
	cfg.Faults.TimeoutProb = bc.Params.Float("fault_timeout")
	cfg.Faults.ShortReadProb = bc.Params.Float("fault_shortread")
	attack := bc.Params.Str("attack")
	tr, kind, injected, err := simulate(cfg, attack)
	if err != nil {
		return nil, err
	}
	if attack != "" {
		bc.Env.Logf("segment %s: injected %s attack: %d packets at +%s", bc.ID, kind, injected, cfg.Duration/2)
	}
	return &PacketInput{src: stream.NewRecordSource(tr.Records, bc.Params.Float("speed")), trace: tr}, nil
}

// simulate runs the grid simulator and injects attack — "recon",
// "breaker" or "setpoint", empty for a clean feed — at half the feed
// length, returning the trace, the injected kind and how many packets
// it added.
func simulate(cfg scadasim.Config, attack string) (*scadasim.Trace, scadasim.AttackKind, int, error) {
	ac := scadasim.AttackConfig{At: cfg.Start.Add(cfg.Duration / 2)}
	switch attack {
	case "":
	case "recon":
		ac.Kind = scadasim.AttackRecon
	case "breaker":
		ac.Kind = scadasim.AttackBreakerTrip
	case "setpoint":
		ac.Kind = scadasim.AttackSetpointTamper
	default:
		return nil, 0, 0, fmt.Errorf("unknown attack %q (want recon, breaker or setpoint)", attack)
	}
	if attack != "" {
		// Long cycle period: general interrogations would otherwise
		// legitimise the attacker's recon tokens.
		cfg.CyclePeriod = 100 * time.Minute
	}
	sim, err := scadasim.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	tr, err := sim.Run()
	if err != nil || attack == "" {
		return tr, 0, 0, err
	}
	if ac.Kind == scadasim.AttackSetpointTamper {
		ac.Attacker = sim.Network().ServerAddr("C1")
	}
	injected, err := sim.InjectAttack(tr, ac)
	return tr, ac.Kind, injected, err
}

// Trace exposes a sim input's generated records (iec104live writes its
// -pcap cross-check capture from it).
func (s *PacketInput) Trace() *scadasim.Trace { return s.trace }

// oneSource implements sourceGiver: a capture directory is a sequence
// of sources, which only an inline edge can carry.
func (s *PacketInput) oneSource() bool { return len(s.more) == 0 }

// armHandoff implements sourceGiver.
func (s *PacketInput) armHandoff() { s.handoff = true }

// Run implements Segment.
func (s *PacketInput) Run(ctx context.Context, _ <-chan Msg, emit Emit) error {
	if s.handoff {
		emit(Msg{Src: s.src})
		return nil
	}
	err := pump(ctx, s.src, emit)
	for _, path := range s.more {
		if err != nil {
			break
		}
		var src *stream.FileSource
		if src, err = stream.NewFileSource(path); err == nil {
			err = pump(ctx, src, emit)
		}
	}
	return err
}
