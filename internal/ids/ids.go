// Package ids implements the paper's future-work proposal (§7): a
// whitelisting intrusion detection system for IEC 104 networks that
// correlates *cyber* profiles (the Markov / N-gram message-sequence
// models of §6.3) with *physical* profiles (the measurement semantics
// and event signatures of §6.4).
//
// A Baseline is trained from a known-good capture: which endpoints
// exist, which APDU tokens each logical connection uses, the global
// bigram language model, which (station, IOA, type) points are
// legitimate, and each point's operating range. Scanning a later
// capture against the baseline yields typed alerts; the package
// detects exactly the Industroyer-style behaviours the paper warns
// about — reconnaissance via interrogation or iterative reads from
// unexpected parties, control commands from new endpoints, setpoints
// outside physical ranges and breaker commands that contradict the
// whitelisted activation signature.
//
// Key layout: vocabularies are sets of protocol.Token values and the
// language model is markov.NGram's packed-token table, so no check
// renders a token. Connections and points are keyed by resolved names
// (connKey, pointKey) because alerts are about names; the live Monitor
// reaches them through one core.ConnKey lookup per frame and an IOA
// lookup per object. Text exists in alerts and in BaselineState only.
package ids

import (
	"fmt"
	"math"
	"net/netip"
	"sort"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/physical"
)

// AlertKind classifies a finding.
type AlertKind string

// Alert kinds.
const (
	// AlertNewEndpoint: an address never seen in the baseline speaks
	// IEC 104.
	AlertNewEndpoint AlertKind = "new-endpoint"
	// AlertNewConnection: a known server/outstation pair that never
	// communicated before.
	AlertNewConnection AlertKind = "new-connection"
	// AlertNewToken: a connection used an APDU token outside its
	// baseline vocabulary (e.g. a command type on a monitoring link).
	AlertNewToken AlertKind = "new-token"
	// AlertSequence: the connection's token stream scores far above
	// the baseline bigram model's perplexity.
	AlertSequence AlertKind = "sequence-anomaly"
	// AlertUnknownPoint: an information object address never reported
	// in the baseline (Industroyer's IOA scanning).
	AlertUnknownPoint AlertKind = "unknown-point"
	// AlertValueRange: a measurement or setpoint left its baseline
	// operating envelope.
	AlertValueRange AlertKind = "value-out-of-range"
	// AlertCommandBurst: a connection issued far more control-
	// direction commands than the baseline rate allows.
	AlertCommandBurst AlertKind = "command-burst"
	// AlertDialectChange: an endpoint switched wire dialect (a
	// different device answering on the same address).
	AlertDialectChange AlertKind = "dialect-change"
	// AlertDrift: the streaming engine's rolling profile diverged from
	// its stored baseline profile (raised by the drift engine, not by
	// per-shard monitors — drift is a property of the merged state).
	AlertDrift AlertKind = "drift"
)

// Alert is one finding.
type Alert struct {
	Kind     AlertKind
	Severity int // 1 (info) .. 3 (critical)
	Subject  string
	Detail   string
}

func (a Alert) String() string {
	return fmt.Sprintf("[sev%d %s] %s: %s", a.Severity, a.Kind, a.Subject, a.Detail)
}

// pointKey identifies one whitelisted information object.
type pointKey struct {
	Station string
	IOA     uint32
}

// valueRange is a point's baseline operating envelope.
type valueRange struct {
	Min, Max float64
	Type     physical.PointType
	Command  bool
	Samples  int
}

// connKey identifies a logical connection by names.
type connKey struct {
	Server, Outstation string
}

// Baseline is the trained whitelist.
type Baseline struct {
	endpoints map[netip.Addr]bool
	conns     map[connKey]map[iec104.Token]bool // allowed token vocabulary
	bigram    *markov.NGram
	points    map[pointKey]*valueRange
	profiles  map[string]iec104.Profile
	// commandRate is the per-connection commands-per-ASDU baseline.
	commandRate map[connKey]float64

	// PerplexityFactor: a scanned connection alerts when its bigram
	// perplexity exceeds this multiple of the worst baseline
	// connection. Default 2.
	PerplexityFactor float64
	// RangeMargin widens [min,max] by this fraction of the span
	// before alerting. Default 0.25.
	RangeMargin float64

	worstPerplexity float64
}

// Train builds a baseline from an analyzed known-good capture.
func Train(a *core.Analyzer) (*Baseline, error) {
	b := &Baseline{
		endpoints:        make(map[netip.Addr]bool),
		conns:            make(map[connKey]map[iec104.Token]bool),
		points:           make(map[pointKey]*valueRange),
		profiles:         make(map[string]iec104.Profile),
		commandRate:      make(map[connKey]float64),
		PerplexityFactor: 2,
		RangeMargin:      0.25,
	}
	var err error
	b.bigram, err = markov.NewNGram(2)
	if err != nil {
		return nil, err
	}

	for _, key := range a.ConnKeys() {
		b.endpoints[key.Server] = true
		b.endpoints[key.Outstation] = true
		ck := connKey{Server: a.Name(key.Server), Outstation: a.Name(key.Outstation)}
		vocab, ok := b.conns[ck]
		if !ok {
			vocab = make(map[iec104.Token]bool)
			b.conns[ck] = vocab
		}
		chain, seen := a.ConnTokens(key)
		if err := b.bigram.TrainChain(chain); err != nil {
			return nil, err
		}
		commands := 0
		for _, t := range seen {
			vocab[t] = true
			if t.IsCommand() {
				commands += chain.Count(t)
			}
		}
		if total := chain.TotalTokens(); total > 0 {
			rate := float64(commands) / float64(total)
			if rate > b.commandRate[ck] {
				b.commandRate[ck] = rate
			}
		}
	}
	// Baseline perplexity: the worst-scoring baseline connection sets
	// the detection floor.
	for _, key := range a.ConnKeys() {
		chain, _ := a.ConnTokens(key)
		p, err := b.bigram.PerplexityChain(chain)
		if err == nil && p > b.worstPerplexity {
			b.worstPerplexity = p
		}
	}

	for _, s := range a.Physical().All() {
		pk := pointKey{Station: s.Key.Station, IOA: s.Key.IOA}
		vr, ok := b.points[pk]
		if !ok {
			vr = &valueRange{Min: math.Inf(1), Max: math.Inf(-1), Type: s.Type, Command: s.Command}
			b.points[pk] = vr
		}
		for _, smp := range s.Samples {
			if smp.V < vr.Min {
				vr.Min = smp.V
			}
			if smp.V > vr.Max {
				vr.Max = smp.V
			}
			vr.Samples++
		}
	}

	for _, sc := range a.Compliance().Stations {
		if sc.Detected {
			b.profiles[sc.Name] = sc.Profile
		}
	}
	return b, nil
}

// Size summarises the trained whitelist (for reports).
func (b *Baseline) Size() (endpoints, connections, points int) {
	return len(b.endpoints), len(b.conns), len(b.points)
}

// Scan evaluates an analyzed capture against the baseline.
func (b *Baseline) Scan(a *core.Analyzer) []Alert {
	var alerts []Alert
	add := func(kind AlertKind, sev int, subject, format string, args ...any) {
		alerts = append(alerts, Alert{
			Kind: kind, Severity: sev, Subject: subject,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Deduplicate per-scan without mutating the trained baseline: a
	// rogue endpoint must alert again on every capture it appears in.
	alerted := map[netip.Addr]bool{}
	for _, key := range a.ConnKeys() {
		serverName := a.Name(key.Server)
		outName := a.Name(key.Outstation)
		label := serverName + "-" + outName
		for _, addr := range []netip.Addr{key.Server, key.Outstation} {
			if !b.endpoints[addr] && !alerted[addr] {
				add(AlertNewEndpoint, 3, a.Name(addr),
					"address %s speaks IEC 104 but is not in the baseline", addr)
				alerted[addr] = true
			}
		}
		ck := connKey{Server: serverName, Outstation: outName}
		vocab, known := b.conns[ck]
		if !known {
			add(AlertNewConnection, 2, label, "no baseline traffic between these endpoints")
		}
		chain, seen := a.ConnTokens(key)
		commands := 0
		for _, t := range seen {
			if known && !vocab[t] {
				sev := 1
				if t.IsCommand() {
					sev = 3 // a brand-new command type is the Industroyer pattern
				}
				add(AlertNewToken, sev, label, "token %s outside baseline vocabulary", t)
			}
			if t.IsCommand() {
				commands += chain.Count(t)
			}
		}
		if total := chain.TotalTokens(); total >= 4 {
			if p, err := b.bigram.PerplexityChain(chain); err == nil &&
				b.worstPerplexity > 0 && p > b.PerplexityFactor*b.worstPerplexity {
				add(AlertSequence, 2, label,
					"token-sequence perplexity %.1f exceeds baseline ceiling %.1f", p, b.worstPerplexity)
			}
			rate := float64(commands) / float64(total)
			base := b.commandRate[ck]
			if rate > 0.2 && rate > 4*base+0.05 {
				add(AlertCommandBurst, 3, label,
					"command rate %.0f%% of APDUs (baseline %.0f%%)", 100*rate, 100*base)
			}
		}
	}

	for _, s := range a.Physical().All() {
		pk := pointKey{Station: s.Key.Station, IOA: s.Key.IOA}
		vr, known := b.points[pk]
		if !known {
			sev := 1
			if s.Command {
				sev = 3
			}
			add(AlertUnknownPoint, sev, pk.Station,
				"IOA %d (%s) never seen in baseline", pk.IOA, s.Type.Acronym())
			continue
		}
		lo, hi := b.bounds(vr)
		for _, smp := range s.Samples {
			if smp.V < lo || smp.V > hi {
				sev := 2
				if s.Command {
					sev = 3
				}
				add(AlertValueRange, sev, fmt.Sprintf("%s/%d", pk.Station, pk.IOA),
					"value %.4g outside baseline [%.4g, %.4g]", smp.V, vr.Min, vr.Max)
				break // one alert per series
			}
		}
	}

	for _, sc := range a.Compliance().Stations {
		if !sc.Detected {
			continue
		}
		if prev, ok := b.profiles[sc.Name]; ok && prev != sc.Profile {
			add(AlertDialectChange, 2, sc.Name,
				"dialect changed %s -> %s (different device answering?)", prev, sc.Profile)
		}
	}

	sort.SliceStable(alerts, func(i, j int) bool {
		if alerts[i].Severity != alerts[j].Severity {
			return alerts[i].Severity > alerts[j].Severity
		}
		if alerts[i].Kind != alerts[j].Kind {
			return alerts[i].Kind < alerts[j].Kind
		}
		return alerts[i].Subject < alerts[j].Subject
	})
	return alerts
}

// CountBySeverity tallies alerts per severity 1..3.
func CountBySeverity(alerts []Alert) [4]int {
	var out [4]int
	for _, a := range alerts {
		if a.Severity >= 1 && a.Severity <= 3 {
			out[a.Severity]++
		}
	}
	return out
}
