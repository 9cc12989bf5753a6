package ids

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden alert files")

// goldenRun is one (baseline, observed capture) pairing whose complete
// alert output is pinned.
type goldenRun struct {
	name string
	// train / observe configure the two simulated captures; auto
	// switches the analyzers to mixed-protocol auto-detection.
	train, observe scadasim.Config
	trainAuto      bool
	observeAuto    bool
	attack         *scadasim.AttackConfig
}

func shortConfig(seed int64) scadasim.Config {
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = 4 * time.Minute
	cfg.CyclePeriod = 100 * time.Minute // keep baseline vocabularies stable
	return cfg
}

// mixedConfig is internal/stream's golden mixed capture (IEC 104 +
// C37.118 + Modbus) at the given seed.
func mixedConfig(seed int64) scadasim.Config {
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = 3 * time.Minute
	cfg.EnableModbus = true
	return cfg
}

func goldenRuns() []goldenRun {
	net := topology.Build()
	return []goldenRun{
		{name: "clean", train: shortConfig(21), observe: shortConfig(22)},
		{name: "recon", train: shortConfig(21), observe: shortConfig(21),
			attack: &scadasim.AttackConfig{Kind: scadasim.AttackRecon}},
		{name: "breaker", train: shortConfig(21), observe: shortConfig(21),
			attack: &scadasim.AttackConfig{
				Kind:     scadasim.AttackBreakerTrip,
				Attacker: net.ServerAddr("C1"),
				Targets:  []topology.OutstationID{"O1"},
			}},
		{name: "setpoint", train: shortConfig(21), observe: shortConfig(21),
			attack: &scadasim.AttackConfig{
				Kind:     scadasim.AttackSetpointTamper,
				Attacker: net.ServerAddr("C1"),
				Targets:  []topology.OutstationID{"O29"},
			}},
		// A mixed-protocol whitelist watching another day of the same
		// mixed network: dialect tokens checked against per-connection
		// vocabularies.
		{name: "mixed", train: mixedConfig(7), trainAuto: true, observe: mixedConfig(8), observeAuto: true},
		// An IEC 104-only whitelist meeting the golden mixed capture:
		// every PMU and Modbus association is an unknown connection.
		{name: "mixed_cold", train: shortConfig(21), observe: mixedConfig(7), observeAuto: true},
	}
}

// goldenCapture simulates cfg (with the optional attack injected two
// minutes in) and returns the pcap bytes, their simulator and the trace.
func goldenCapture(t testing.TB, cfg scadasim.Config, attack *scadasim.AttackConfig) ([]byte, *scadasim.Simulator, *scadasim.Trace) {
	t.Helper()
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if attack != nil {
		ac := *attack
		if ac.At.IsZero() {
			ac.At = cfg.Start.Add(2 * time.Minute)
		}
		if _, err := sim.InjectAttack(tr, ac); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sim, tr
}

func goldenAnalyzer(t testing.TB, sim *scadasim.Simulator, auto bool, obs core.FrameObserver, capture []byte) *core.Analyzer {
	t.Helper()
	a := core.NewAnalyzer(core.NamesFromTopology(sim.Network()))
	if auto {
		a.EnableProtocolDetect()
	}
	a.SetFrameObserver(obs)
	if err := a.ReadPCAP(bytes.NewReader(capture)); err != nil {
		t.Fatal(err)
	}
	return a
}

// pointAlerts is the set of unknown-point and value-out-of-range
// alerts, by kind, subject and detail.
func pointAlerts(alerts []Alert) map[Alert]bool {
	set := make(map[Alert]bool)
	for _, al := range alerts {
		if al.Kind == AlertUnknownPoint || al.Kind == AlertValueRange {
			al.Severity = 0
			set[al] = true
		}
	}
	return set
}

func writeAlerts(sb *strings.Builder, section string, alerts []Alert) {
	fmt.Fprintf(sb, "# %s: %d alerts\n", section, len(alerts))
	for _, al := range alerts {
		fmt.Fprintf(sb, "%s\t%d\t%s\t%s\n", al.Kind, al.Severity, al.Subject, al.Detail)
	}
}

// TestAlertGoldens pins the complete ordered alert sequence — kind,
// severity, subject and detail text — that the live Monitor (in firing
// order) and the offline Baseline.Scan (in its sorted order) produce on
// a clean day, on each scripted attack and on mixed-protocol captures.
// The fixtures were recorded from the string-keyed monitor, so a pass
// proves a rewritten monitor reaches the same verdicts at the same
// frames with the same numbers in the text. Regenerate (only for a
// deliberate change of detection behaviour) with:
//
//	go test ./internal/ids -run TestAlertGoldens -update
func TestAlertGoldens(t *testing.T) {
	for _, run := range goldenRuns() {
		t.Run(run.name, func(t *testing.T) {
			trainCap, trainSim, _ := goldenCapture(t, run.train, nil)
			b, err := Train(goldenAnalyzer(t, trainSim, run.trainAuto, nil, trainCap))
			if err != nil {
				t.Fatal(err)
			}
			obsCap, obsSim, _ := goldenCapture(t, run.observe, run.attack)
			var live []Alert
			mon := NewMonitor(b, func(al Alert) { live = append(live, al) })
			a := goldenAnalyzer(t, obsSim, run.observeAuto, mon, obsCap)
			if mon.Alerts() != len(live) {
				t.Fatalf("monitor counted %d alerts, sink saw %d", mon.Alerts(), len(live))
			}

			scan := b.Scan(a)
			// The live point checks see every dialect's points, as Scan
			// sees every series: both raise the same point alerts.
			if l, s := pointAlerts(live), pointAlerts(scan); !maps.Equal(l, s) {
				t.Errorf("point alerts differ: monitor %d %v, scan %d %v", len(l), l, len(s), s)
			}

			var sb strings.Builder
			writeAlerts(&sb, "monitor", live)
			writeAlerts(&sb, "scan", scan)
			got := sb.String()

			path := filepath.Join("testdata", run.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d monitor alerts)", path, len(live))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("alert output differs from %s at line %d:\n golden: %q\n  fresh: %q", path, i+1, w, g)
				}
			}
		})
	}
}
