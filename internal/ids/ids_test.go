package ids

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// buildAnalyzer synthesizes a capture (optionally with an injected
// attack) and runs the pipeline.
func buildAnalyzer(t testing.TB, seed int64, attack *scadasim.AttackConfig) (*core.Analyzer, *scadasim.Trace) {
	t.Helper()
	capture, sim, tr := goldenCapture(t, shortConfig(seed), attack)
	return goldenAnalyzer(t, sim, false, nil, capture), tr
}

func TestCleanTrafficScansQuiet(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	eps, conns, points := b.Size()
	if eps == 0 || conns == 0 || points == 0 {
		t.Fatalf("empty baseline: %d/%d/%d", eps, conns, points)
	}
	// A re-run with a different seed (same network, different noise)
	// must stay almost silent: no critical alerts.
	otherA, _ := buildAnalyzer(t, 22, nil)
	alerts := b.Scan(otherA)
	sev := CountBySeverity(alerts)
	if sev[3] != 0 {
		for _, al := range alerts {
			if al.Severity == 3 {
				t.Errorf("critical alert on clean traffic: %v", al)
			}
		}
	}
}

func TestDetectsReconAttack(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	attackedA, tr := buildAnalyzer(t, 21, &scadasim.AttackConfig{Kind: scadasim.AttackRecon})
	if tr.Truth.Attack == nil || tr.Truth.Attack.Packets == 0 {
		t.Fatal("attack not injected")
	}
	alerts := b.Scan(attackedA)
	kinds := map[AlertKind]int{}
	for _, al := range alerts {
		kinds[al.Kind]++
	}
	if kinds[AlertNewEndpoint] == 0 {
		t.Errorf("rogue endpoint not flagged: %v", kinds)
	}
	if kinds[AlertNewConnection] == 0 {
		t.Errorf("rogue connections not flagged: %v", kinds)
	}
	if CountBySeverity(alerts)[3] == 0 {
		t.Error("no critical alert for recon attack")
	}
}

func TestDetectsInsiderBreakerTrip(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	// Insider: the attacker uses control server C1's address, so no
	// new-endpoint alert is possible — detection must come from the
	// cyber profile (new command tokens / command burst).
	net := topology.Build()
	attackedA, _ := buildAnalyzer(t, 21, &scadasim.AttackConfig{
		Kind:     scadasim.AttackBreakerTrip,
		Attacker: net.ServerAddr("C1"),
		Targets:  []topology.OutstationID{"O1"},
	})
	alerts := b.Scan(attackedA)
	var sawCommandToken bool
	for _, al := range alerts {
		if al.Kind == AlertNewToken && al.Severity == 3 && al.Subject == "C1-O1" {
			sawCommandToken = true
		}
	}
	if !sawCommandToken {
		t.Errorf("insider breaker commands not flagged; alerts: %v", alerts)
	}
}

func TestDetectsSetpointTamper(t *testing.T) {
	baselineA, _ := buildAnalyzer(t, 21, nil)
	b, err := Train(baselineA)
	if err != nil {
		t.Fatal(err)
	}
	net := topology.Build()
	// Tamper with a legitimate AGC station from its legitimate server
	// so the only signal is the physical envelope.
	attackedA, _ := buildAnalyzer(t, 21, &scadasim.AttackConfig{
		Kind:     scadasim.AttackSetpointTamper,
		Attacker: net.ServerAddr("C1"),
		Targets:  []topology.OutstationID{"O29"},
	})
	alerts := b.Scan(attackedA)
	var sawRange bool
	for _, al := range alerts {
		if al.Kind == AlertValueRange && al.Severity == 3 {
			sawRange = true
		}
	}
	if !sawRange {
		t.Errorf("tampered setpoint not flagged; alerts: %v", alerts)
	}
}

func TestInjectAttackValidation(t *testing.T) {
	cfg := scadasim.DefaultConfig(topology.Y1, 9)
	cfg.Duration = 2 * time.Minute
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Attack outside the window.
	_, err = sim.InjectAttack(tr, scadasim.AttackConfig{
		Kind: scadasim.AttackRecon,
		At:   cfg.Start.Add(-time.Minute),
	})
	if err == nil {
		t.Error("attack before capture accepted")
	}
	// Unknown target.
	_, err = sim.InjectAttack(tr, scadasim.AttackConfig{
		Kind:    scadasim.AttackRecon,
		At:      cfg.Start.Add(time.Minute),
		Targets: []topology.OutstationID{"O99"},
	})
	if err == nil {
		t.Error("unknown target accepted")
	}
	// Removed-in-Y2 target against a Y2 simulator.
	cfg2 := scadasim.DefaultConfig(topology.Y2, 9)
	cfg2.Duration = 2 * time.Minute
	sim2, _ := scadasim.New(cfg2)
	tr2, _ := sim2.Run()
	_, err = sim2.InjectAttack(tr2, scadasim.AttackConfig{
		Kind:    scadasim.AttackRecon,
		At:      cfg2.Start.Add(time.Minute),
		Targets: []topology.OutstationID{"O2"},
	})
	if err == nil {
		t.Error("absent target accepted")
	}
}

func TestAttackOrderingPreserved(t *testing.T) {
	_, tr := buildAnalyzer(t, 33, &scadasim.AttackConfig{Kind: scadasim.AttackBreakerTrip})
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].Time.Before(tr.Records[i-1].Time) {
			t.Fatalf("records out of order after injection at %d", i)
		}
	}
}

// TestNewTokensAlertInFirstSeenOrder: Scan reads a connection's
// vocabulary, not its token stream, and the vocabulary is in first-seen
// order — so two command types a monitoring link never used alert once
// each, in the order they first appeared, whichever sorts first.
func TestNewTokensAlertInFirstSeenOrder(t *testing.T) {
	rtu := netip.MustParseAddrPort("10.0.1.1:2404")
	scada := netip.MustParseAddrPort("10.0.0.5:40001")
	marshal := func(apdu *iec104.APDU) []byte {
		t.Helper()
		b, err := apdu.Marshal(iec104.Standard)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// analyze feeds the monitoring exchange (a measurement up, an
	// acknowledgement down) with the given commands sent in between.
	analyze := func(commands ...*iec104.ASDU) *core.Analyzer {
		a := core.NewAnalyzer(nil)
		at := time.Unix(1560000000, 0).UTC()
		seq := map[netip.AddrPort]uint32{}
		send := func(src, dst netip.AddrPort, data []byte) {
			a.FeedPacket(pcap.Packet{
				Info: pcap.CaptureInfo{Timestamp: at},
				IP:   pcap.IPv4{Src: src.Addr(), Dst: dst.Addr(), Protocol: pcap.IPProtoTCP, Payload: data},
				TCP: pcap.TCP{
					SrcPort: src.Port(), DstPort: dst.Port(),
					Seq: seq[src], Flags: pcap.FlagACK | pcap.FlagPSH, Payload: data,
				},
			})
			seq[src] += uint32(len(data))
			at = at.Add(time.Second)
		}
		var up, down uint16
		for round := 0; round < 6; round++ {
			m := iec104.NewMeasurement(iec104.MMeNc, 1, 100, iec104.Value{Kind: iec104.KindFloat, Float: 49.9}, iec104.CauseSpontaneous)
			send(rtu, scada, marshal(iec104.NewI(up, down, m)))
			up++
			for _, c := range commands {
				send(scada, rtu, marshal(iec104.NewI(down, up, c)))
				down++
			}
			send(scada, rtu, marshal(iec104.NewS(up)))
		}
		return a
	}
	b, err := Train(analyze())
	if err != nil {
		t.Fatal(err)
	}
	interro := iec104.NewInterrogation(1, iec104.CauseActivation)
	setpoint := iec104.NewSetpointFloat(1, 7001, 55.5, iec104.CauseActivation)
	for _, tc := range []struct {
		name     string
		commands []*iec104.ASDU
		want     []string
	}{
		{"I100 then I50", []*iec104.ASDU{interro, setpoint}, []string{"token I100 outside baseline vocabulary", "token I50 outside baseline vocabulary"}},
		{"I50 then I100", []*iec104.ASDU{setpoint, interro}, []string{"token I50 outside baseline vocabulary", "token I100 outside baseline vocabulary"}},
	} {
		var got []string
		for _, al := range b.Scan(analyze(tc.commands...)) {
			if al.Kind == AlertNewToken {
				if al.Severity != 3 {
					t.Errorf("%s: %v is a new command type, want severity 3", tc.name, al)
				}
				got = append(got, al.Detail)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: new-token alerts %q, want %q", tc.name, got, tc.want)
		}
	}
}
