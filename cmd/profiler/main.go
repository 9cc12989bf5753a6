// Command profiler runs the paper's full measurement pipeline over a
// capture and prints every §6 report: flow taxonomy, compliance and
// dialect detection, session clusters, Markov chains with the
// outstation classification, the ASDU type distribution, the
// physical-measurement ranking, and the pipeline's own observability
// stats (metric counters, gauges, histograms and journal event counts).
//
// Every run is the declared src → analyzer graph (pipeline.ProfilerGraph)
// under the shared host: -workers shards analyze concurrently, a rolling
// profile is published at -metrics under /profile with /statusz and
// /readyz next to /metrics, and Ctrl-C drains the pipeline and prints
// the reports of what was read. With -follow the capture is tailed like
// `tail -f` until interrupted. -trace arms the flight recorder: sampled
// stage spans exported as a Chrome trace_event JSON file on drain (or
// SIGUSR1). A one-shard run (the default) keeps every sample in one
// analyzer, which is what the timing report, -save-baseline and the
// end-of-run -load-baseline scan read.
//
// Usage:
//
//	profiler capture.pcap
//	profiler -report flows,markov capture.pcap
//	profiler -report stats -journal events.jsonl capture.pcap
//	profiler -follow -workers 4 -metrics :9104 growing.pcap
//	profiler -workers 4 -trace out.json capture.pcap
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/physical"
	"uncharted/internal/pipeline"
	"uncharted/internal/protocol"
	"uncharted/internal/stream"
)

// reportNames is every -report value, in the default print order.
var reportNames = []string{"flows", "compliance", "clusters", "markov", "types", "physical", "timing", "stats"}

// reportHelp documents every -report value.
const reportHelp = `comma-separated reports to print; valid values:
  flows       TCP flow taxonomy and durations (Table 3 / Fig. 8)
  compliance  per-endpoint dialect detection (§6.1 / Fig. 7)
  clusters    session K-means clustering (§6.3 / Fig. 10-11)
  markov      per-connection Markov chains and outstation classes (Fig. 13/17, Table 6)
  types       ASDU type distribution (Table 7)
  physical    measurement series ranked by normalized variance (§6.4)
  timing      recovered per-station reporting periods (one-shard runs)
  stats       pipeline observability: counters, gauges, histograms, journal events`

// The flag table; the report printer reads it directly.
var (
	reports       = flag.String("report", strings.Join(reportNames, ","), reportHelp)
	names         = flag.Bool("names", true, "label addresses with the simulated topology's names (C1, O30, ...)")
	proto         = flag.String("proto", "", "extra dialects to decode, comma-separated (c37118, modbus), or \"auto\" to content-detect every registered dialect")
	journalPath   = flag.String("journal", "", "append structured pipeline events to this JSONL file")
	follow        = flag.Bool("follow", false, "tail a growing capture until interrupted")
	workers       = flag.Int("workers", 1, "analysis shards")
	readers       = flag.Int("readers", 0, "parallel segment readers for a finished capture: the file is split at record boundaries and ingested concurrently (0 = match -workers; ignored with -follow)")
	metricsAddr   = flag.String("metrics", "", "serve /metrics, /debug/vars and /profile on this address (e.g. :9104)")
	snapshotEvery = flag.Duration("snapshot", 2*time.Second, "rolling-profile period with -follow")
	idleTimeout   = flag.Duration("idle-timeout", 0, "evict flows idle this long (0 = keep all)")
	historianDir  = flag.String("historian", "", "record every IEC 104 measurement into the durable historian at this directory (adds /query next to /metrics)")
	pointCap      = flag.Int("point-cap", 0, "cap in-memory samples per series; pair with -historian so long -follow runs hold steady memory (0 = unbounded)")
	saveProfile   = flag.String("save-profile", "", "save the merged analysis state as a versioned profile file for later drift comparison")
	profileLabel  = flag.String("profile-label", "", "label stored with -save-profile and -push (default: capture path)")
	pushURL       = flag.String("push", "", "probe mode: POST the final merged partial (drift profile codec) to this control-room URL, e.g. http://host:9180/v1/fleet/partial")
	baselinePath  = flag.String("baseline", "", "compare against this stored profile and print the drift report; the rolling profile is diffed live and served at /drift")
	saveBaseline  = flag.String("save-baseline", "", "train an IDS whitelist on the capture and persist it (needs a one-shard run)")
	loadBaseline  = flag.String("load-baseline", "", "load a persisted IDS whitelist: arms one online monitor per shard, and a one-shard run also scans the whole capture at the end")
	cpuProfile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile    = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	tracePath     = flag.String("trace", "", "record sampled stage spans and write a Chrome trace_event JSON file here on drain (SIGUSR1 dumps mid-run)")
	traceSample   = flag.Int("trace-sample", 64, "with -trace, record 1 in N span starts per lane")
)

func main() {
	os.Exit(run())
}

// run checks the flags, hosts the ProfilerGraph preset like every
// graph-running command (pipeline.Host) and renders the reports from
// the drained engine.
func run() int {
	log.SetFlags(0)
	log.SetPrefix("profiler: ")

	flag.Parse()
	if flag.NArg() != 1 {
		log.Print("usage: profiler [-report list] [-journal events.jsonl] [-follow] [-workers N] [-metrics addr] capture.pcap")
		return 2
	}
	want := map[string]bool{}
	for _, r := range strings.Split(*reports, ",") {
		r = strings.TrimSpace(r)
		if !slices.Contains(reportNames, r) {
			log.Printf("unknown -report %q (want %s)", r, strings.Join(reportNames, ", "))
			return 2
		}
		want[r] = true
	}
	if _, err := stream.ParseProtocols(*proto); err != nil {
		log.Print(err)
		return 2
	}
	if *saveBaseline != "" && *workers > 1 {
		log.Print("-save-baseline needs a one-shard run (raw samples stay with the shard that saw them)")
		return 2
	}

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer stopProfiles()

	if *profileLabel == "" {
		*profileLabel = flag.Arg(0)
	}
	if *historianDir != "" {
		log.Printf("recording measurements into historian at %s", *historianDir)
	}
	if *baselinePath != "" {
		log.Printf("drift detection armed against stored profile %s", *baselinePath)
	}
	if *loadBaseline != "" {
		log.Printf("IDS monitors armed from stored whitelist %s", *loadBaseline)
	}
	if *follow {
		log.Printf("following %s with %d worker shard(s); interrupt to drain", flag.Arg(0), *workers)
	}

	return pipeline.Host{
		Graph: func(rec *trace.Recorder) (*pipeline.Config, map[string]any) {
			return pipeline.ProfilerGraph(pipeline.ProfilerPreset{
				Path:            flag.Arg(0),
				Follow:          *follow,
				Workers:         *workers,
				Readers:         *readers,
				SnapshotEvery:   *snapshotEvery,
				IdleTimeout:     *idleTimeout,
				PointCap:        *pointCap,
				Names:           *names,
				HistorianDir:    *historianDir,
				BaselinePath:    *baselinePath,
				IDSBaselinePath: *loadBaseline,
				Protocols:       *proto,
				Trace:           rec,
			})
		},
		JournalPath: *journalPath,
		Addr:        *metricsAddr,
		TracePath:   *tracePath,
		TraceSample: *traceSample,
		After: func(h *pipeline.Hosted) int {
			exit := 0
			switch {
			case h.Err != nil:
				// A truncated or partially corrupt capture still carries
				// data: report what parsed, but exit non-zero so scripts
				// notice.
				fmt.Fprintf(os.Stderr, "profiler: warning: capture read stopped early: %v (reporting partial results)\n", h.Err)
				exit = 1
			case h.Interrupted && !*follow:
				// An interrupt is how a followed capture ends; on a finished
				// one it cuts the read short like a damaged file does.
				fmt.Fprintln(os.Stderr, "profiler: warning: interrupted before the end of the capture (reporting partial results)")
				exit = 1
			}
			an := h.Runner.Analyzer()
			e := an.Engine()
			whole := e.Analyzer() // nil when the run was sharded
			if code := printReports(want, e.Final(), whole, h.Registry, h.Journal); code != 0 {
				exit = code
			}
			if rep := an.DriftReport(); rep != nil {
				// The analyzer diffed the final merged state against the
				// baseline on its last publish.
				rep.WriteText(os.Stdout)
				fmt.Println()
			}
			if code := baselineActions(whole); code != 0 {
				exit = code
			}
			return exit
		},
	}.Run()
}

// baselineActions runs the IDS-whitelist flags over the analyzer that
// saw the whole run; a sharded run has none (whole is nil) and its
// -load-baseline detection was the shards' online monitors.
func baselineActions(whole *core.Analyzer) int {
	if whole == nil {
		return 0
	}
	if *saveBaseline != "" {
		base, err := ids.Train(whole)
		if err != nil {
			log.Printf("training baseline: %v", err)
			return 1
		}
		if err := drift.SaveBaseline(*saveBaseline, base); err != nil {
			log.Print(err)
			return 1
		}
		eps, conns, points := base.Size()
		log.Printf("saved IDS baseline to %s: %d endpoints, %d connections, %d points",
			*saveBaseline, eps, conns, points)
	}
	if *loadBaseline != "" {
		base, err := drift.LoadBaseline(*loadBaseline)
		if err != nil {
			log.Print(err)
			return 1
		}
		alerts := base.Scan(whole)
		fmt.Printf("== IDS scan against %s ==\n", *loadBaseline)
		if len(alerts) == 0 {
			fmt.Println("no deviations from baseline")
		}
		for _, al := range alerts {
			fmt.Println(al)
		}
		fmt.Println()
	}
	return 0
}

// printReports renders the capture header and the wanted reports, in
// a fixed order, from the run's merged core.Partial, then runs the
// profile-persistence and probe-push flags over it. whole is the
// analyzer that saw the whole run, nil when it was sharded: timing needs
// its per-point timestamps.
func printReports(want map[string]bool, p core.Partial, whole *core.Analyzer, reg *obs.Registry, journal *obs.Journal) int {
	fmt.Printf("Capture: %d packets (%d IEC 104), window %s .. %s, parse errors %d\n\n",
		p.Packets, p.IECPackets,
		p.First.Format("2006-01-02 15:04:05"), p.Last.Format("15:04:05"), p.ParseErrors)
	if p.SeqAnomalies > 0 {
		fmt.Printf("IEC 104 sequence anomalies: %d\n\n", p.SeqAnomalies)
	}
	if p.FlowsEvicted > 0 {
		fmt.Printf("flows evicted after %s idle: %d\n\n", *idleTimeout, p.FlowsEvicted)
	}

	if want["flows"] {
		s := p.Flows
		fmt.Println("== TCP flow analysis (Table 3) ==")
		fmt.Printf("short-lived: %d (%.1f%%), of which <1s: %d (%.1f%%)\n",
			s.ShortLived, 100*s.ShortProportion(), s.ShortLivedSubSec, 100*s.SubSecProportion())
		fmt.Printf("long-lived:  %d (%.1f%%)\n\n", s.LongLived, 100*s.LongProportion())
	}
	if want["compliance"] {
		printCompliance(p.ComplianceReport())
		printDialects(p.Dialects, p.Streams)
	}
	if want["clusters"] {
		printClusters(p.ClusterReport(5, core.ClusterSeed))
	}
	if want["markov"] {
		printMarkov(p.MarkovReport())
	}
	if want["types"] {
		fmt.Println("== ASDU type distribution (Table 7) ==")
		fmt.Println(core.FormatTypeTable(p.TypeDistribution()))
	}
	if want["physical"] {
		printPhysical(p.Physical)
	}
	if want["timing"] {
		printTiming(whole)
	}
	if want["stats"] {
		printStats(reg, journal)
	}

	if *saveProfile != "" {
		prof := drift.NewProfile(*profileLabel, flag.Arg(0), p, time.Now())
		if err := drift.SaveProfile(*saveProfile, prof); err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("saved profile %q (%d packets, %d connections) to %s",
			*profileLabel, p.Packets, len(p.Chains), *saveProfile)
	}
	if *pushURL != "" {
		if err := pushPartial(*pushURL, *profileLabel, flag.Arg(0), p); err != nil {
			log.Print(err)
			return 1
		}
	}
	return 0
}

// pushPartial is the probe half of the control-room fleet view: the
// merged analysis state, encoded with the drift profile codec, POSTed
// to an unchartedd /v1/{tenant}/partial endpoint where MergePartials
// folds it into the fleet-wide profile.
func pushPartial(url, label, source string, p core.Partial) error {
	prof := drift.NewProfile(label, source, p, time.Now())
	// Bounded: a stuck control room fails the push instead of hanging it.
	client := http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(prof.Encode()))
	if err != nil {
		return fmt.Errorf("push %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	log.Printf("pushed partial %q (%d packets) to %s: %s",
		label, p.Packets, url, strings.TrimSpace(string(body)))
	return nil
}

// printStats renders the observability registry: every counter (the
// malformed-frame causes and strict-invalid dialects appear here as
// labeled series), then gauges, histogram summaries (with -trace, the
// flight recorder's per-stage latencies) and journal event counts.
func printStats(reg *obs.Registry, journal *obs.Journal) {
	snap := reg.Snapshot()
	fmt.Println("== Pipeline stats (observability registry) ==")
	fmt.Println("counters:")
	for _, c := range snap.Counters {
		fmt.Printf("  %-46s %10d\n", c.Name+labelSuffix(c.Labels), c.Value)
	}
	if len(snap.Gauges) > 0 {
		fmt.Println("gauges:")
		for _, g := range snap.Gauges {
			fmt.Printf("  %-46s %10g\n", g.Name+labelSuffix(g.Labels), g.Value)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Println("histograms:")
		for _, h := range snap.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Printf("  %-46s n=%-8d sum=%-12.4g mean=%.4g\n",
				h.Name+labelSuffix(h.Labels), h.Count, h.Sum, mean)
		}
	}
	if counts := journal.Counts(); len(counts) > 0 {
		types := make([]string, 0, len(counts))
		for t := range counts {
			types = append(types, string(t))
		}
		sort.Strings(types)
		fmt.Println("journal events:")
		for _, t := range types {
			fmt.Printf("  %-46s %10d\n", t, counts[obs.EventType(t)])
		}
	}
	fmt.Println()
}

// labelSuffix renders metric labels as {k=v,...} for the stats report.
func labelSuffix(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func printTiming(whole *core.Analyzer) {
	fmt.Println("== recovered reporting periods (timing characteristics) ==")
	if whole == nil {
		fmt.Println("(unavailable at more than one shard: per-point timestamps stay with the shard that saw them)")
		fmt.Println()
		return
	}
	for _, st := range whole.StationTimings(20) {
		periods := "spontaneous-only"
		if len(st.Periods) > 0 {
			parts := make([]string, len(st.Periods))
			for i, p := range st.Periods {
				parts[i] = fmt.Sprintf("%.1fs", p)
			}
			periods = strings.Join(parts, ", ")
		}
		fmt.Printf("%-6s cycles=[%s] periodic=%d spontaneous=%d\n",
			st.Station, periods, st.PeriodicPoints, st.SpontaneousPoints)
	}
}

func printCompliance(rep core.ComplianceReport) {
	fmt.Println("== IEC 104 compliance (§6.1) ==")
	if len(rep.NonCompliant) == 0 {
		fmt.Println("all endpoints standard-compliant")
	}
	for _, sc := range rep.Stations {
		if !sc.NonCompliant() {
			continue
		}
		fmt.Printf("%-16s dialect=%-13s frames=%d strict-invalid=%d\n",
			sc.Name, sc.Profile, sc.Frames, sc.StrictInvalid)
	}
	fmt.Println()
}

// printDialects renders the multi-protocol decode tally and the
// per-stream rate compliance; silent on single-protocol runs.
func printDialects(ds []core.DialectStat, streams []protocol.StreamCompliance) {
	if len(ds) == 0 {
		return
	}
	fmt.Println("== Multi-protocol dialects ==")
	for _, d := range ds {
		fmt.Printf("%-8s frames=%d parse-errors=%d bytes=%d tokens=%d\n",
			d.Proto, d.Frames, d.ParseErrors, d.Bytes, len(d.TokenCounts))
	}
	for _, sc := range streams {
		verdict := "ok"
		if !sc.Compliant {
			verdict = "VIOLATION"
		}
		fmt.Printf("%-8s stream %s/%s %s: %s\n", sc.Proto, sc.Conn, sc.Unit, verdict, sc.Detail)
	}
	fmt.Println()
}

func printClusters(rep *core.ClusterReport, err error) {
	fmt.Println("== Session clustering (Fig. 10/11) ==")
	if err != nil {
		fmt.Printf("(skipped: %v)\n\n", err)
		return
	}
	fmt.Printf("sessions=%d K=%d SSE=%.1f silhouette=%.3f sizes=%v\n",
		len(rep.Features), rep.K, rep.SSE, rep.Sil, rep.Sizes)
	fmt.Printf("outlier cluster: %s\n\n", strings.Join(rep.Outliers, ", "))
}

func printMarkov(rep core.MarkovReport) {
	fmt.Println("== Markov chains (Fig. 13) ==")
	fmt.Printf("connections=%d point(1,1)=%d square=%d ellipse=%d\n",
		len(rep.Chains), len(rep.Point11), len(rep.Square), len(rep.Ellipse))
	if len(rep.Point11) > 0 {
		fmt.Printf("reset backups: %s\n", strings.Join(rep.Point11, ", "))
	}
	if len(rep.Ellipse) > 0 {
		fmt.Printf("interrogating: %s\n", strings.Join(rep.Ellipse, ", "))
	}
	fmt.Println("\n== Outstation classification (Table 6 / Fig. 17) ==")
	for _, c := range rep.Classes {
		fmt.Printf("%-16s Type%d\n", c.Outstation, c.Type)
	}
	fmt.Printf("distribution (types 1-8): %v\n\n", rep.Distribution[1:])
}

// printPhysical ranks the merged per-series moment sketches, so the
// report is the same at any shard count.
func printPhysical(digests []physical.Digest) {
	fmt.Println("== Physical measurements (§6.4) ==")
	fmt.Printf("series extracted: %d\n", len(digests))
	fmt.Println("top normalized-variance series:")
	for i, j := range physical.RankDigests(digests, 10) {
		if i >= 8 {
			break
		}
		d := &digests[j]
		fmt.Printf("  %-14s %-10s nvar=%.4g samples=%d\n",
			d.Key, d.Type.Acronym(), d.NormalizedVariance(), d.Count)
	}
}
