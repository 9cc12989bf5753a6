// Anomalies: hunt the paper's outliers in a synthesized capture —
// legacy protocol dialects, backup connections that get reset, the
// misconfigured 430-second keep-alive timer (C2-O30), and the
// stale-data outstation whose spontaneous thresholds are too wide.
// Everything here also works on a real IEC 104 pcap.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

func main() {
	log.SetFlags(0)

	cfg := scadasim.DefaultConfig(topology.Y1, 3)
	cfg.Duration = 20 * time.Minute // long enough for two 430s keep-alive attempts
	sim, err := scadasim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WritePCAP(&buf); err != nil {
		log.Fatal(err)
	}
	a := core.NewAnalyzer(core.NamesFromTopology(sim.Network()))
	if err := a.ReadPCAP(&buf); err != nil {
		log.Fatal(err)
	}

	// Anomaly 1: non-compliant dialects. A strict parser sees 100%
	// invalid packets from these stations; the tolerant parser names
	// the legacy field layout instead.
	fmt.Println("== legacy dialects ==")
	for _, sc := range a.Compliance().Stations {
		if sc.NonCompliant() {
			fmt.Printf("%-5s speaks %-13s (%d/%d frames unreadable strictly)\n",
				sc.Name, sc.Profile, sc.StrictInvalid, sc.Frames)
		}
	}

	// Anomaly 2: backup connections reset by the outstation — chains
	// stuck at the Markov point (1,1).
	mk := a.MarkovChains()
	fmt.Println("\n== reset backup connections (Fig. 9 / Fig. 14) ==")
	for _, name := range mk.Point11 {
		fmt.Printf("%s: server keep-alives never acknowledged, TCP reset instead\n", name)
	}

	// Anomaly 3: the misconfigured keep-alive timer. Compare each
	// point-(1,1) connection's attempt cadence: C2-O30 stands out an
	// order of magnitude slower.
	fmt.Println("\n== keep-alive cadence of reset backups ==")
	for _, cc := range mk.Chains {
		if cc.Cluster.String() != "point(1,1)" {
			continue
		}
		mean := meanGap(a, cc.Key)
		flag := ""
		if mean > 120*time.Second {
			flag = "  <-- misconfigured T3 (paper: 430s vs ~30s elsewhere)"
		}
		fmt.Printf("%s-%s: mean attempt gap %v%s\n", cc.Server, cc.Outstation, mean.Round(time.Second), flag)
	}

	// Anomaly 4: the stale-data outstation (Type 5): spontaneous-only
	// reporting with thresholds so wide that T3 keep-alives fire in
	// the middle of its primary connection.
	fmt.Println("\n== stale-data outstations (Type 5) ==")
	for _, c := range mk.Classes {
		if c.Type == 5 {
			fmt.Printf("%s: I-frames and keep-alives on the same connection — wide spontaneous thresholds\n", c.Outstation)
		}
	}

	// Anomaly 5: an N-gram whitelist flags an Industroyer-style
	// iterative scan as out-of-distribution traffic.
	fmt.Println("\n== n-gram whitelist vs. an attack sequence ==")
	model := trainWhitelist(a)
	healthy := tokens("I36", "I36", "S", "I36", "I36", "S")
	attack := tokens("I100", "I45", "I46", "I45", "I46", "I100")
	hp, _ := model.Perplexity(healthy)
	ap, _ := model.Perplexity(attack)
	fmt.Printf("perplexity healthy=%.1f attack=%.1f (higher = more anomalous)\n", hp, ap)
}

func meanGap(a *core.Analyzer, key core.ConnKey) time.Duration {
	// Approximate the attempt cadence from the session inter-arrival
	// of server->outstation packets.
	for _, s := range a.Sessions().All() {
		if s.Key.Src == key.Server && s.Key.Dst == key.Outstation && s.Packets > 1 {
			return time.Duration(s.MeanInterArrival() * float64(time.Second))
		}
	}
	return 0
}

func trainWhitelist(a *core.Analyzer) *markov.NGram {
	m, err := markov.NewNGram(2)
	if err != nil {
		log.Fatal(err)
	}
	for _, key := range a.ConnKeys() {
		chain, _ := a.ConnTokens(key)
		if err := m.TrainChain(chain); err != nil {
			log.Fatal(err)
		}
	}
	return m
}

func tokens(names ...string) []iec104.Token {
	out := make([]iec104.Token, len(names))
	for i, n := range names {
		t, err := iec104.ParseToken(n)
		if err != nil {
			log.Fatal(err)
		}
		out[i] = t
	}
	return out
}
