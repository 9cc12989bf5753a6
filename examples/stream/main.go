// Stream: the sharded streaming engine end-to-end, in process. A
// simulated grid feeds the engine at 60x real time while the main
// goroutine polls rolling snapshots — the same view -follow mode
// serves over HTTP — and an online detector (one ids.Monitor per
// shard) flags an Industroyer-style recon sweep the moment its frames
// pass through. At the end the engine drains and the final merged
// state is printed; it matches what the offline profiler reports on
// the equivalent recorded capture.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/ids"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

func main() {
	log.SetFlags(0)

	simulate := func(seed int64, attack bool) (*scadasim.Trace, *topology.Network) {
		cfg := scadasim.DefaultConfig(topology.Y1, seed)
		cfg.Duration = 90 * time.Second
		cfg.CyclePeriod = 100 * time.Minute // keep interrogations out of the baseline
		sim, err := scadasim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		if attack {
			n, err := sim.InjectAttack(tr, scadasim.AttackConfig{
				Kind: scadasim.AttackRecon,
				At:   cfg.Start.Add(45 * time.Second),
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("injected recon attack: %d packets at +45s\n", n)
		}
		return tr, sim.Network()
	}

	// Train the whitelist on a clean day, then stream an attacked one.
	cleanTrace, net := simulate(21, false)
	names := core.NamesFromTopology(net)
	trainer := core.NewAnalyzer(names)
	src := stream.NewRecordSource(cleanTrace.Records, 0)
	for {
		pkt, err := src.Next()
		if err != nil {
			break
		}
		trainer.FeedPacket(pkt)
	}
	baseline, err := ids.Train(trainer)
	if err != nil {
		log.Fatal(err)
	}

	attacked, _ := simulate(21, true)

	var mu sync.Mutex // monitors are per shard; the sink is shared
	e := stream.New(stream.Config{
		Workers:       4,
		SnapshotEvery: 250 * time.Millisecond,
		ClusterK:      5,
		ClusterSeed:   core.ClusterSeed,
		Names:         names,
		Observer: func(shard int) core.FrameObserver {
			return ids.NewMonitor(baseline, func(al ids.Alert) {
				mu.Lock()
				defer mu.Unlock()
				fmt.Printf("  ALERT [shard %d] %v\n", shard, al)
			})
		},
	})

	done := make(chan error, 1)
	go func() {
		// 60x: the 90 simulated seconds stream in 1.5 wall seconds.
		done <- e.Run(context.Background(), stream.NewRecordSource(attacked.Records, 60))
	}()

	fmt.Println("streaming at 60x; rolling snapshots:")
	tick := time.NewTicker(400 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				log.Fatal(err)
			}
			running = false
		case <-tick.C:
			if p := e.Profile(); p != nil {
				fmt.Printf("  snapshot #%d: %d packets, %d flows, %d ASDUs\n",
					p.Seq, p.Packets, p.Flows.Total, p.TotalASDUs)
			}
		}
	}

	final := e.Final()
	fmt.Printf("\nfinal merged state (identical to the offline analyzer):\n")
	fmt.Printf("  %d packets (%d IEC 104), %d flows, %d ASDUs\n",
		final.Packets, final.IECPackets, final.Flows.Total(), final.TotalASDUs)
	mk := final.MarkovReport()
	fmt.Printf("  markov: %d connections, point(1,1)=%d square=%d ellipse=%d\n",
		len(mk.Chains), len(mk.Point11), len(mk.Square), len(mk.Ellipse))
	comp := final.ComplianceReport()
	fmt.Printf("  non-compliant dialect speakers: %v\n", comp.NonCompliant)
}
