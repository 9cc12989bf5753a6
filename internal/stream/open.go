package stream

import (
	"fmt"
	"os"
	"time"

	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// SourceSpec declares a packet source. It is the one vocabulary the
// control-room service's tenant configs and the pipeline runtime's
// input segments both translate into, so a source kind is opened —
// and owns its file handle — the same way everywhere.
type SourceSpec struct {
	// Kind is "sim" (in-process simulator), "pcap" (finished capture)
	// or "follow" (growing classic-pcap capture, tailed).
	Kind string
	// Path is the capture file of a pcap or follow source.
	Path string
	// Speed paces a sim or pcap source against the wall clock (60 = one
	// captured minute per wall second; 0 = as fast as possible).
	Speed float64
	// Sim parameterises a sim source.
	Sim SimSpec
}

// SimSpec is the simulated feed of a "sim" source.
type SimSpec struct {
	Year     int           // capture campaign: 1 or 2
	Seed     int64         // simulation seed
	Duration time.Duration // feed length; 0 keeps the simulator default
	Modbus   bool          // add a Modbus/TCP polling association
	Faults   scadasim.Faults
	// Attack injects "recon", "breaker" or "setpoint" at half the feed
	// length; empty for a clean feed.
	Attack string
}

// Feed is an opened source. Hand Source itself (not a wrapper) to the
// engine, which picks its read path from the interfaces it implements,
// and Close it when done.
type Feed struct {
	Source Source
	// Trace and Network are the generated records and topology of a sim
	// source, nil otherwise.
	Trace   *scadasim.Trace
	Network *topology.Network
	// Attack and Injected describe the injected attack of a sim source:
	// its kind and how many packets it added.
	Attack   scadasim.AttackKind
	Injected int
}

// OpenSource opens the declared source. A pcap source is seekable (the
// engine may read it with parallel segment readers) unless it is paced.
func OpenSource(spec SourceSpec) (*Feed, error) {
	switch spec.Kind {
	case "sim":
		return openSim(spec.Sim, spec.Speed)
	case "pcap":
		if spec.Speed <= 0 {
			src, err := NewFileSource(spec.Path)
			if err != nil {
				return nil, err
			}
			return &Feed{Source: src}, nil
		}
		f, err := os.Open(spec.Path)
		if err != nil {
			return nil, err
		}
		src, err := NewReplaySource(f, spec.Speed)
		if err != nil {
			f.Close()
			return nil, err
		}
		src.file = f
		return &Feed{Source: src}, nil
	case "follow":
		src, err := NewFollowSource(spec.Path)
		if err != nil {
			return nil, err
		}
		return &Feed{Source: src}, nil
	}
	return nil, fmt.Errorf("unknown source kind %q (want sim, pcap or follow)", spec.Kind)
}

func openSim(spec SimSpec, speed float64) (*Feed, error) {
	year := topology.Y1
	if spec.Year == 2 {
		year = topology.Y2
	}
	cfg := scadasim.DefaultConfig(year, spec.Seed)
	if spec.Duration > 0 {
		cfg.Duration = spec.Duration
	}
	cfg.EnableModbus = spec.Modbus
	cfg.Faults = spec.Faults
	if spec.Attack != "" {
		// Long cycle period: general interrogations would otherwise
		// legitimise the attacker's recon tokens.
		cfg.CyclePeriod = 100 * time.Minute
	}
	sim, err := scadasim.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := sim.Run()
	if err != nil {
		return nil, err
	}
	feed := &Feed{Trace: tr, Network: sim.Network()}
	if spec.Attack != "" {
		ac := scadasim.AttackConfig{At: cfg.Start.Add(cfg.Duration / 2)}
		switch spec.Attack {
		case "recon":
			ac.Kind = scadasim.AttackRecon
		case "breaker":
			ac.Kind = scadasim.AttackBreakerTrip
		case "setpoint":
			ac.Kind = scadasim.AttackSetpointTamper
			ac.Attacker = feed.Network.ServerAddr("C1")
		default:
			return nil, fmt.Errorf("unknown attack %q (want recon, breaker or setpoint)", spec.Attack)
		}
		if feed.Injected, err = sim.InjectAttack(tr, ac); err != nil {
			return nil, err
		}
		feed.Attack = ac.Kind
	}
	// After the injection: it rewrites tr.Records.
	feed.Source = NewRecordSource(tr.Records, speed)
	return feed, nil
}
