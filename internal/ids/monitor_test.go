package ids

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// runMonitored replays a (possibly attacked) capture through a fresh
// analyzer with a Monitor attached and returns the alerts in firing
// order.
func runMonitored(t *testing.T, b *Baseline, seed int64, attack *scadasim.AttackConfig) []Alert {
	t.Helper()
	capture, sim, _ := goldenCapture(t, shortConfig(seed), attack)
	var alerts []Alert
	mon := NewMonitor(b, func(al Alert) { alerts = append(alerts, al) })
	goldenAnalyzer(t, sim, false, mon, capture)
	if mon.Alerts() != len(alerts) {
		t.Fatalf("monitor counted %d alerts, sink saw %d", mon.Alerts(), len(alerts))
	}
	return alerts
}

func TestMonitorQuietOnCleanTraffic(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	alerts := runMonitored(t, b, 22, nil)
	if sev := CountBySeverity(alerts); sev[3] != 0 {
		for _, al := range alerts {
			if al.Severity == 3 {
				t.Errorf("critical alert on clean traffic: %v", al)
			}
		}
	}
}

func TestMonitorDetectsReconLive(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	alerts := runMonitored(t, b, 21, &scadasim.AttackConfig{Kind: scadasim.AttackRecon})
	kinds := map[AlertKind]int{}
	for _, al := range alerts {
		kinds[al.Kind]++
	}
	if kinds[AlertNewEndpoint] == 0 {
		t.Errorf("rogue endpoint not flagged live: %v", kinds)
	}
	if kinds[AlertNewConnection] == 0 {
		t.Errorf("rogue connections not flagged live: %v", kinds)
	}
	// Dedup: the rogue address must alert exactly once however many
	// frames it sends.
	if kinds[AlertNewEndpoint] != 1 {
		t.Errorf("new-endpoint alert fired %d times, want 1", kinds[AlertNewEndpoint])
	}
}

func TestMonitorDetectsInsiderBreakerTripLive(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	net := topology.Build()
	alerts := runMonitored(t, b, 21, &scadasim.AttackConfig{
		Kind:     scadasim.AttackBreakerTrip,
		Attacker: net.ServerAddr("C1"),
		Targets:  []topology.OutstationID{"O1"},
	})
	var sawCommandToken bool
	for _, al := range alerts {
		if al.Kind == AlertNewToken && al.Severity == 3 && al.Subject == "C1-O1" {
			sawCommandToken = true
		}
	}
	if !sawCommandToken {
		t.Errorf("insider breaker commands not flagged live; alerts: %v", alerts)
	}
}

func TestMonitorDetectsSetpointTamperLive(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	net := topology.Build()
	alerts := runMonitored(t, b, 21, &scadasim.AttackConfig{
		Kind:     scadasim.AttackSetpointTamper,
		Attacker: net.ServerAddr("C1"),
		Targets:  []topology.OutstationID{"O29"},
	})
	var sawRange bool
	for _, al := range alerts {
		if al.Kind == AlertValueRange && al.Severity == 3 {
			sawRange = true
		}
	}
	if !sawRange {
		t.Errorf("tampered setpoint not flagged live; alerts: %v", alerts)
	}
}

// trainedBaseline is the clean-day whitelist the monitor unit tests
// share (training replays a four-minute capture).
func trainedBaseline(t *testing.T) *Baseline {
	t.Helper()
	a, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// baselineFlow picks a whitelisted connection whose outstation reports
// at least nPoints points and returns frame events for it: an S-frame
// the connection's vocabulary allows and an I-frame carrying nPoints
// in-envelope objects.
func baselineFlow(t *testing.T, b *Baseline, nPoints int) (sFrame, iFrame core.FrameEvent) {
	t.Helper()
	cks := make([]connKey, 0, len(b.conns))
	for ck := range b.conns {
		cks = append(cks, ck)
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].Server+"-"+cks[i].Outstation < cks[j].Server+"-"+cks[j].Outstation })
	for _, ck := range cks {
		vocab := b.conns[ck]
		asdu := &iec104.ASDU{Type: iec104.MMeNc}
		for pk, vr := range b.points {
			if pk.Station == ck.Outstation && len(asdu.Objects) < nPoints {
				asdu.Objects = append(asdu.Objects, iec104.InfoObject{
					IOA: pk.IOA, Value: iec104.Value{Kind: iec104.KindFloat, Float: (vr.Min + vr.Max) / 2},
				})
			}
		}
		iTok := iec104.IToken(asdu.Type)
		if len(asdu.Objects) < nPoints || !vocab[iec104.TokenS] || !vocab[iTok] {
			continue
		}
		ev := core.FrameEvent{
			Conn: core.ConnKey{
				Server:     netip.MustParseAddr("10.9.9.1"),
				Outstation: netip.MustParseAddr("10.9.9.2"),
			},
			Server: ck.Server, Outstation: ck.Outstation,
		}
		for _, addr := range []netip.Addr{ev.Conn.Server, ev.Conn.Outstation} {
			b.endpoints[addr] = true
		}
		sFrame, iFrame = ev, ev
		sFrame.Token = iec104.TokenS
		iFrame.Token, iFrame.FromOutstation = iTok, true
		iFrame.Points = iec104.AppendPoints(nil, asdu, false)
		return sFrame, iFrame
	}
	t.Fatalf("no baseline connection with %d points, S and I%d", nPoints, iec104.MMeNc)
	return
}

// TestObserveFrameAllocs is the monitor's allocation tripwire: on a
// flow it has already resolved, a frame allocates nothing — not the
// vocabulary check, not the bigram score, not the 64th-token perplexity
// check, not the eight point lookups of an I-frame.
func TestObserveFrameAllocs(t *testing.T) {
	b := trainedBaseline(t)
	b.PerplexityFactor = math.Inf(1) // S/I alternation is not what this link does: score it, never alert
	sFrame, iFrame := baselineFlow(t, b, 8)
	var fired []Alert
	mon := NewMonitor(b, func(al Alert) { fired = append(fired, al) })
	for i := 0; i < 2*seqWindow; i++ { // resolve the flow, fill the ring
		mon.ObserveFrame(sFrame)
		mon.ObserveFrame(iFrame)
	}
	if len(fired) != 0 {
		t.Fatalf("warm-up traffic alerted: %v", fired)
	}
	cs := mon.flows[sFrame.Conn]
	before := cs.tokens
	// 128 frames per run: two perplexity checks in every run.
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < seqCheckEvery; i++ {
			mon.ObserveFrame(sFrame)
			mon.ObserveFrame(iFrame)
		}
	})
	if allocs != 0 {
		t.Errorf("ObserveFrame allocates %.2f per 128 warmed frames, want 0", allocs)
	}
	if scored := (cs.tokens - before) / seqCheckEvery; scored < 2 || !mon.scoreSeq || cs.alertedSeq {
		t.Fatalf("measured frames ran %d perplexity checks (scoring %v, alerted %v)", scored, mon.scoreSeq, cs.alertedSeq)
	}
	if len(fired) != 0 {
		t.Fatalf("measured traffic alerted: %v", fired)
	}
}

// TestMonitorWindowFootprintConstant: the perplexity window used to be
// a slice slid forward over its backing array, so it reallocated and
// copied every seqWindow tokens. It is a fixed ring inside the
// connection's state now: 10 000 tokens on one connection allocate
// nothing after the flow is resolved, and the monitor holds exactly one
// state whose size is fixed at compile time.
func TestMonitorWindowFootprintConstant(t *testing.T) {
	b := trainedBaseline(t)
	sFrame, iFrame := baselineFlow(t, b, 1)
	iFrame.Points = nil
	mon := NewMonitor(b, nil)
	for i := 0; i < seqWindow; i++ {
		mon.ObserveFrame(sFrame)
	}
	cs := mon.flows[sFrame.Conn]
	fed := seqWindow
	allocs := testing.AllocsPerRun(1, func() {
		for ; fed < 10000; fed++ {
			if fed%3 == 0 {
				mon.ObserveFrame(iFrame)
			} else {
				mon.ObserveFrame(sFrame)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocations while feeding tokens %d..10000 to one connection, want 0", allocs, seqWindow)
	}
	if cs.tokens != 10000 || len(mon.flows) != 1 || len(mon.conns) != 1 || mon.flows[sFrame.Conn] != cs {
		t.Fatalf("state after 10000 tokens: %d counted, %d flows, %d connections", cs.tokens, len(mon.flows), len(mon.conns))
	}
	if len(cs.logProb) != seqWindow {
		t.Fatalf("window holds %d terms, want %d", len(cs.logProb), seqWindow)
	}
}

// TestMonitorPerplexityMatchesNGram: at every check the ring's score is
// bit-for-bit markov.NGram.Perplexity of the last seqWindow tokens — so
// every threshold decision is the one the slice-window monitor made.
func TestMonitorPerplexityMatchesNGram(t *testing.T) {
	b := trainedBaseline(t)
	b.PerplexityFactor = math.Inf(1) // score forever: never alert
	sFrame, _ := baselineFlow(t, b, 1)
	alphabet := []iec104.Token{iec104.TokenS, iec104.TokenTestFRAct, iec104.TokenTestFRCon,
		iec104.IToken(13), iec104.IToken(36), iec104.IToken(100), iec104.IToken(45), iec104.IToken(120)}
	rng := rand.New(rand.NewSource(64))
	mon := NewMonitor(b, nil)
	var stream []iec104.Token
	checks := 0
	for i := 0; i < 2000; i++ {
		ev := sFrame
		ev.Token = alphabet[rng.Intn(len(alphabet))]
		if rng.Intn(4) > 0 && len(stream) > 0 {
			ev.Token = stream[len(stream)-1] // long runs, as periodic traffic has
		}
		stream = append(stream, ev.Token)
		mon.ObserveFrame(ev)
		if len(stream)%seqCheckEvery != 0 {
			continue
		}
		window := stream
		if len(window) > seqWindow {
			window = window[len(window)-seqWindow:]
		}
		want, err := b.bigram.Perplexity(window)
		if err != nil {
			t.Fatal(err)
		}
		got := mon.flows[ev.Conn].perplexity()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after %d tokens: ring scores %v (%#x), Perplexity(window) %v (%#x)",
				len(stream), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checks++
	}
	if checks != 2000/seqCheckEvery {
		t.Fatalf("%d checks compared", checks)
	}
}

// TestBaselineFromStateRejectsBadTokens: a restored whitelist is
// untrusted input; a vocabulary token the grammar rejects fails the
// restore instead of vanishing from the vocabulary.
func TestBaselineFromStateRejectsBadTokens(t *testing.T) {
	s := trainedBaseline(t).State()
	if _, err := BaselineFromState(s); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if len(s.Conns) == 0 || len(s.Conns[0].Tokens) == 0 || len(s.Bigram.Vocab) == 0 {
		t.Fatal("trained baseline has no vocabulary to corrupt")
	}
	conns := s
	conns.Conns = append([]ConnVocab(nil), s.Conns...)
	conns.Conns[0].Tokens = append([]string{"I0x7f"}, s.Conns[0].Tokens[1:]...)
	if _, err := BaselineFromState(conns); err == nil {
		t.Error("garbage connection-vocabulary token accepted")
	}
	bigram := s
	bigram.Bigram.Vocab = append([]string{"?"}, s.Bigram.Vocab[1:]...)
	if _, err := BaselineFromState(bigram); err == nil {
		t.Error("garbage n-gram vocabulary token accepted")
	}
}
