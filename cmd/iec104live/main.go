// Command iec104live wires the traffic simulator straight into the
// streaming analysis engine: no pcap on disk, records become decoded
// packets in process and fan out to worker shards while the rolling
// profile is served over HTTP. It is the live-operation demo of the
// pipeline — interrupting it drains the shards gracefully and prints
// the exact final profile as JSON.
//
// With -attack an Industroyer-style scenario is injected mid-feed and
// the feed fans out to an online detector (the graph's ids segment,
// trained on a clean run of the same grid) that raises alerts the
// moment the offending frames pass through.
//
// With -pcap the identical traffic is also written as a capture, so
// the streamed profile can be cross-checked against the offline
// profiler:
//
//	iec104live -pcap same.pcap >live.json
//	profiler same.pcap
//
// With -trace the flight recorder samples stage spans across the
// whole pipeline and writes a Chrome trace_event JSON file on drain
// (or on SIGUSR1 mid-run) that loads in chrome://tracing and
// Perfetto; -metrics additionally serves /statusz (live pipeline
// topology), /readyz and the pprof endpoints — poll them with
// cmd/unchartedtop for a top-style view.
//
// Usage:
//
//	iec104live                       # 2 simulated minutes, as fast as possible
//	iec104live -speed 60 -metrics :9104
//	iec104live -attack recon -workers 4
//	iec104live -workers 4 -trace out.json   # then open out.json in Perfetto
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"uncharted/internal/ids"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pipeline"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("iec104live: ")

	year := flag.Int("year", 1, "capture year to simulate (1 or 2)")
	seed := flag.Int64("seed", 1, "simulation seed")
	duration := flag.Duration("duration", 2*time.Minute, "simulated feed length")
	speed := flag.Float64("speed", 0, "replay speed multiple (60 = one simulated minute per wall second; 0 = as fast as possible)")
	workers := flag.Int("workers", 2, "analysis shards")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /profile on this address (e.g. :9104)")
	snapshotEvery := flag.Duration("snapshot", time.Second, "rolling-profile period")
	attack := flag.String("attack", "", "inject an attack mid-feed and detect it online: recon, breaker or setpoint")
	pcapOut := flag.String("pcap", "", "also write the fed traffic as a capture for offline cross-checking")
	journalPath := flag.String("journal", "", "append structured pipeline events to this JSONL file")
	historianDir := flag.String("historian", "", "record every IEC 104 measurement into the durable historian at this directory (adds /query next to /metrics)")
	pointCap := flag.Int("point-cap", 0, "cap in-memory samples per series; pair with -historian for bounded-memory long feeds (0 = unbounded)")
	tracePath := flag.String("trace", "", "record sampled stage spans and write a Chrome trace_event JSON file here on drain (open in chrome://tracing or Perfetto; SIGUSR1 dumps mid-run)")
	traceSample := flag.Int("trace-sample", 64, "with -trace, record 1 in N span starts per lane")
	flag.Parse()

	switch *attack {
	case "", "recon", "breaker", "setpoint":
	default:
		log.Printf("unknown -attack %q (want recon, breaker or setpoint)", *attack)
		return 2
	}

	if *historianDir != "" {
		log.Printf("recording measurements into historian at %s", *historianDir)
	}

	// The sim→analyzer graph is the same declared pipeline an
	// unchartedd config's "pipelines" entry would build, hosted like
	// every graph-running command's; the simulator runs (the attack is
	// injected, the detector trained) while the runner constructs the
	// segments.
	return pipeline.Host{
		Graph: func(rec *trace.Recorder) (*pipeline.Config, map[string]any) {
			graph, hooks := pipeline.LiveGraph(pipeline.LivePreset{
				Year:          *year,
				Seed:          int(*seed),
				Duration:      *duration,
				Speed:         *speed,
				Attack:        *attack,
				Workers:       *workers,
				SnapshotEvery: *snapshotEvery,
				HistorianDir:  *historianDir,
				PointCap:      *pointCap,
				Trace:         rec,
			})
			hooks["live/ids"] = func(al ids.Alert) { log.Printf("ALERT %v", al) }
			return graph, hooks
		},
		JournalPath: *journalPath,
		Addr:        *metricsAddr,
		TracePath:   *tracePath,
		TraceSample: *traceSample,
		Before: func(h *pipeline.Hosted) error {
			tr := h.Runner.Segment("live", "sim").(*pipeline.PacketInput).Trace()
			if *pcapOut != "" {
				pf, err := os.Create(*pcapOut)
				if err != nil {
					return err
				}
				if err := tr.WritePCAP(pf); err != nil {
					pf.Close()
					return err
				}
				if err := pf.Close(); err != nil {
					return err
				}
				log.Printf("wrote equivalent capture to %s", *pcapOut)
			}
			log.Printf("feeding %s of simulated traffic (%d records) through %d shard(s); interrupt to drain",
				*duration, len(tr.Records), *workers)
			return nil
		},
		After: func(h *pipeline.Hosted) int {
			exit := 0
			elapsed := h.Elapsed.Round(time.Millisecond)
			switch {
			case h.Err != nil:
				log.Printf("stream failed: %v", h.Err)
				exit = 1
			case h.Interrupted:
				log.Printf("interrupted after %s, shards drained", elapsed)
			default:
				log.Printf("feed exhausted in %s", elapsed)
			}
			if det, ok := h.Runner.Segment("live", "ids").(*pipeline.IDSSegment); ok {
				log.Printf("online alerts raised: %d", det.Alerts())
			}
			// The final profile is exact: every dispatched packet was analyzed
			// before the shards shut down.
			if prof := h.Runner.Analyzer().Engine().Profile(); prof != nil {
				if err := prof.WriteJSON(os.Stdout); err != nil {
					log.Print(err)
					exit = 1
				}
			}
			return exit
		},
	}.Run()
}
