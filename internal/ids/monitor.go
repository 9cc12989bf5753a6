package ids

import (
	"fmt"
	"math"
	"net/netip"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/physical"
)

// Monitor is the online counterpart of Baseline.Scan: it implements
// core.FrameObserver so a live analyzer raises alerts as frames
// arrive instead of after the capture ends. Each check fires at most
// once per subject (endpoint, connection, token, point) so a noisy
// intruder does not flood the sink; the frame-level checks match the
// offline scanner's thresholds exactly, and the point checks read every
// dialect's points, as Scan reads every series, so both raise the same
// point alerts. Dialect-change detection needs a settled per-endpoint
// profile and stays a Scan-time check.
//
// Cost model: everything a frame's checks need is resolved once, on
// its connection's first frame, into one connState. A steady-state
// frame costs that value-keyed lookup, one token-keyed vocabulary
// lookup, one bigram score and an integer-keyed lookup per point — no
// string is built and nothing allocated until an alert fires.
//
// A Monitor is not safe for concurrent use: attach one per analyzer
// (the streaming engine runs one per shard) and serialise the sink if
// alerts from several monitors converge.
type Monitor struct {
	b    *Baseline
	sink func(Alert)

	// flows is the per-frame lookup. Alerts are about names, so address
	// pairs that resolve to one pair of names share a state (conns) and
	// connections to one outstation share its point table (stations).
	flows    map[core.ConnKey]*connState
	conns    map[connKey]*connState
	stations map[string]map[uint32]*pointState
	// alertedEndpoint is read only when a flow is resolved: an address
	// is first seen on the first frame of some flow.
	alertedEndpoint map[netip.Addr]bool
	// scoreSeq: the baseline has a perplexity ceiling and a language
	// model to score against.
	scoreSeq bool

	alerts int
}

// connState is one logical connection: what the baseline allows on it,
// what has already alerted, and the window the sequence and
// command-burst checks score.
type connState struct {
	server, outstation string
	vocab              map[iec104.Token]bool // baseline vocabulary; nil: the baseline never saw this connection
	baseRate           float64               // baseline commands per APDU
	points             map[uint32]*pointState

	alertedTokens            map[iec104.Token]bool
	alertedBurst, alertedSeq bool

	tokens, commands int
	// The perplexity window is the last seqWindow tokens, of which only
	// the bigram terms are ever read: logProb[i%seqWindow] is the
	// smoothed log-probability of the bigram ending at token i, computed
	// once, when that token arrives. Periodic traffic repeats one
	// transition for long runs, so the last term is memoised by its
	// (memoFrom, prev) bigram.
	prev, memoFrom iec104.Token
	memo           float64
	logProb        [seqWindow]float64
}

// pointState is one point of an outstation: its widened
// baseline envelope, or (vr nil) a point the baseline never saw.
type pointState struct {
	vr      *valueRange
	lo, hi  float64
	alerted bool
}

// seqWindow bounds the token window scored for perplexity;
// seqCheckEvery is how often (in tokens) the score is recomputed.
// minBurstTokens matches Scan's minimum stream length before rate
// checks apply.
const (
	seqWindow      = 256
	seqCheckEvery  = 64
	minBurstTokens = 20
)

// NewMonitor wraps a trained baseline for live checking. sink receives
// every alert as it fires; a nil sink only counts.
func NewMonitor(b *Baseline, sink func(Alert)) *Monitor {
	m := &Monitor{
		b:               b,
		sink:            sink,
		flows:           make(map[core.ConnKey]*connState),
		conns:           make(map[connKey]*connState),
		stations:        make(map[string]map[uint32]*pointState),
		alertedEndpoint: make(map[netip.Addr]bool),
		scoreSeq:        b.worstPerplexity > 0 && b.bigram.VocabSize() > 0,
	}
	for pk, vr := range b.points {
		ps := &pointState{vr: vr}
		ps.lo, ps.hi = b.bounds(vr)
		m.station(pk.Station)[pk.IOA] = ps
	}
	return m
}

// Alerts returns how many alerts have fired so far.
func (m *Monitor) Alerts() int { return m.alerts }

func (m *Monitor) emit(kind AlertKind, sev int, subject, format string, args ...any) {
	m.alerts++
	if m.sink != nil {
		m.sink(Alert{Kind: kind, Severity: sev, Subject: subject, Detail: fmt.Sprintf(format, args...)})
	}
}

func (cs *connState) label() string { return cs.server + "-" + cs.outstation }

// resolve handles a flow's first frame: the endpoint and connection
// whitelist checks, which depend only on who is talking, and the lookup
// of everything later frames need.
func (m *Monitor) resolve(ev *core.FrameEvent) *connState {
	for _, addr := range [2]netip.Addr{ev.Conn.Server, ev.Conn.Outstation} {
		if !m.b.endpoints[addr] && !m.alertedEndpoint[addr] {
			m.alertedEndpoint[addr] = true
			name := ev.Server
			if addr == ev.Conn.Outstation {
				name = ev.Outstation
			}
			m.emit(AlertNewEndpoint, 3, name,
				"address %s speaks IEC 104 but is not in the baseline", addr)
		}
	}
	ck := connKey{Server: ev.Server, Outstation: ev.Outstation}
	cs := m.conns[ck]
	if cs == nil {
		cs = &connState{
			server:     ev.Server,
			outstation: ev.Outstation,
			vocab:      m.b.conns[ck],
			baseRate:   m.b.commandRate[ck],
			points:     m.station(ev.Outstation),
		}
		m.conns[ck] = cs
		if cs.vocab == nil {
			m.emit(AlertNewConnection, 2, cs.label(), "no baseline traffic between these endpoints")
		}
	}
	m.flows[ev.Conn] = cs
	return cs
}

// station returns an outstation's point table (empty for one the
// baseline never saw).
func (m *Monitor) station(name string) map[uint32]*pointState {
	points := m.stations[name]
	if points == nil {
		points = make(map[uint32]*pointState)
		m.stations[name] = points
	}
	return points
}

// ObserveFrame implements core.FrameObserver.
func (m *Monitor) ObserveFrame(ev core.FrameEvent) {
	cs := m.flows[ev.Conn]
	if cs == nil {
		cs = m.resolve(&ev)
	}

	tok := ev.Token
	isCommand := tok.IsCommand()
	if cs.vocab != nil && !cs.vocab[tok] && !cs.alertedTokens[tok] {
		if cs.alertedTokens == nil {
			cs.alertedTokens = make(map[iec104.Token]bool)
		}
		cs.alertedTokens[tok] = true
		sev := 1
		if isCommand {
			sev = 3 // a brand-new command type is the Industroyer pattern
		}
		m.emit(AlertNewToken, sev, cs.label(), "token %s outside baseline vocabulary", tok)
	}

	scoring := m.scoreSeq && !cs.alertedSeq
	if scoring && cs.tokens > 0 {
		if cs.tokens == 1 || tok != cs.prev || cs.prev != cs.memoFrom {
			// The model is a non-empty bigram, so SmoothedProb cannot
			// fail and its result is positive.
			p, _ := m.b.bigram.SmoothedProb([]iec104.Token{cs.prev, tok})
			cs.memo = math.Log(p)
		}
		cs.logProb[cs.tokens%seqWindow] = cs.memo
	}
	cs.memoFrom, cs.prev = cs.prev, tok
	cs.tokens++
	if isCommand {
		cs.commands++
	}

	if cs.tokens >= minBurstTokens && !cs.alertedBurst {
		rate := float64(cs.commands) / float64(cs.tokens)
		if rate > 0.2 && rate > 4*cs.baseRate+0.05 {
			cs.alertedBurst = true
			m.emit(AlertCommandBurst, 3, cs.label(),
				"command rate %.0f%% of APDUs (baseline %.0f%%)", 100*rate, 100*cs.baseRate)
		}
	}

	if scoring && cs.tokens%seqCheckEvery == 0 {
		if p := cs.perplexity(); p > m.b.PerplexityFactor*m.b.worstPerplexity {
			cs.alertedSeq = true
			m.emit(AlertSequence, 2, cs.label(),
				"token-sequence perplexity %.1f exceeds baseline ceiling %.1f",
				p, m.b.worstPerplexity)
		}
	}

	m.observePoints(cs, &ev)
}

// perplexity scores the window: its bigrams' cached terms summed
// oldest first — the additions markov.NGram.SequenceLogProb makes, in
// its order, so the result is bit-identical to Perplexity(window).
func (cs *connState) perplexity() float64 {
	window := cs.tokens
	if window > seqWindow {
		window = seqWindow
	}
	var lp float64
	for i := cs.tokens - window + 1; i < cs.tokens; i++ {
		lp += cs.logProb[i%seqWindow]
	}
	return math.Exp(-lp / float64(window-1))
}

// observePoints applies the point-whitelist and operating-envelope
// checks to each of a frame's measurements, in every dialect, under the
// rules of the analyzer's physical store that Scan reads: the station
// is the outstation side, a point's series is typed by its dialect, and
// a non-finite value is never stored.
func (m *Monitor) observePoints(cs *connState, ev *core.FrameEvent) {
	for i := range ev.Points {
		p := &ev.Points[i]
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			continue
		}
		ps := cs.points[p.IOA]
		switch {
		case ps == nil:
			cs.points[p.IOA] = &pointState{alerted: true}
			sev := 1
			if p.Command {
				sev = 3
			}
			m.emit(AlertUnknownPoint, sev, cs.outstation,
				"IOA %d (%s) never seen in baseline", p.IOA, physical.TypeOf(ev.Proto, p.Code).Acronym())
		case !ps.alerted && (p.V < ps.lo || p.V > ps.hi):
			ps.alerted = true
			sev := 2
			if p.Command {
				sev = 3
			}
			m.emit(AlertValueRange, sev, fmt.Sprintf("%s/%d", cs.outstation, p.IOA),
				"value %.4g outside baseline [%.4g, %.4g]", p.V, ps.vr.Min, ps.vr.Max)
		}
	}
}

// bounds widens a point's baseline envelope by the configured margin:
// a fraction of the observed span, floored at a small fraction of the
// operating magnitude so near-constant series (a bus voltage pinned at
// nominal) do not alert on normal measurement noise.
func (b *Baseline) bounds(vr *valueRange) (lo, hi float64) {
	span := vr.Max - vr.Min
	margin := b.RangeMargin * span
	if floor := 0.05 * math.Max(math.Abs(vr.Min), math.Abs(vr.Max)); margin < floor {
		margin = floor
	}
	if margin < 0.01 {
		margin = 0.01
	}
	return vr.Min - margin, vr.Max + margin
}
