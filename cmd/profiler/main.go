// Command profiler runs the paper's full measurement pipeline over a
// capture and prints every §6 report: flow taxonomy, compliance and
// dialect detection, session clusters, Markov chains with the
// outstation classification, the ASDU type distribution, the
// physical-measurement ranking, and the pipeline's own observability
// stats (per-stage wall time and metric counters).
//
// With -follow the capture is tailed like `tail -f` through the
// streaming engine: -workers shards analyze concurrently, a rolling
// profile is published at -metrics under /profile, and Ctrl-C drains
// the pipeline and prints the final reports. In streaming mode -trace
// arms the flight recorder: sampled stage spans exported as a Chrome
// trace_event JSON file on drain (or SIGUSR1), with /statusz and
// /readyz served next to /metrics.
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
	"sort"
	"strings"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/ids"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/physical"
	"uncharted/internal/pipeline"
	"uncharted/internal/protocol"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// reportHelp documents every -report value.
const reportHelp = `comma-separated reports to print; valid values:
  flows       TCP flow taxonomy and durations (Table 3 / Fig. 8)
  compliance  per-endpoint dialect detection (§6.1 / Fig. 7)
  clusters    session K-means clustering (§6.3 / Fig. 10-11)
  markov      per-connection Markov chains and outstation classes (Fig. 13/17, Table 6)
  types       ASDU type distribution (Table 7)
  physical    measurement series ranked by normalized variance (§6.4)
  timing      recovered per-station reporting periods (offline mode only)
  stats       pipeline observability: stage timings, counters, journal events`

// The flag table. Both halves of the command and the shared report
// printer read it directly.
var (
	reports       = flag.String("report", "flows,compliance,clusters,markov,types,physical,timing,stats", reportHelp)
	names         = flag.Bool("names", true, "label addresses with the simulated topology's names (C1, O30, ...)")
	proto         = flag.String("proto", "", "extra dialects to decode, comma-separated (c37118, modbus), or \"auto\" to content-detect every registered dialect")
	journalPath   = flag.String("journal", "", "append structured pipeline events to this JSONL file")
	follow        = flag.Bool("follow", false, "tail a growing capture with the streaming engine until interrupted")
	workers       = flag.Int("workers", 1, "analysis shards for the streaming engine (with -follow, or >1 to shard a finished capture)")
	readers       = flag.Int("readers", 0, "parallel segment readers for a finished capture: the file is split at record boundaries and ingested concurrently (0 = match -workers; ignored with -follow)")
	metricsAddr   = flag.String("metrics", "", "serve /metrics, /debug/vars and /profile on this address (e.g. :9104)")
	snapshotEvery = flag.Duration("snapshot", 2*time.Second, "rolling-profile period in streaming mode")
	idleTimeout   = flag.Duration("idle-timeout", 0, "evict flows idle this long in streaming mode (0 = keep all)")
	historianDir  = flag.String("historian", "", "record every extracted measurement into the durable historian at this directory (adds /query next to /metrics)")
	pointCap      = flag.Int("point-cap", 0, "cap in-memory samples per series; pair with -historian so long -follow runs hold steady memory (0 = unbounded)")
	saveProfile   = flag.String("save-profile", "", "save the merged analysis state as a versioned profile file for later drift comparison")
	profileLabel  = flag.String("profile-label", "", "label stored with -save-profile and -push (default: capture path)")
	pushURL       = flag.String("push", "", "probe mode: POST the final merged partial (drift profile codec) to this control-room URL, e.g. http://host:9180/v1/fleet/partial")
	baselinePath  = flag.String("baseline", "", "compare against this stored profile and print the drift report; with -follow the rolling profile is diffed live and served at /drift")
	saveBaseline  = flag.String("save-baseline", "", "train an IDS whitelist on the capture and persist it (offline single-analyzer mode only)")
	loadBaseline  = flag.String("load-baseline", "", "load a persisted IDS whitelist: offline mode scans the capture, streaming mode arms per-shard monitors")
	cpuProfile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile    = flag.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	tracePath     = flag.String("trace", "", "streaming mode: record sampled stage spans and write a Chrome trace_event JSON file here on drain (SIGUSR1 dumps mid-run)")
	traceSample   = flag.Int("trace-sample", 64, "with -trace, record 1 in N span starts per lane")
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("profiler: ")

	flag.Parse()
	if flag.NArg() != 1 {
		log.Print("usage: profiler [-report list] [-journal events.jsonl] [-follow] [-workers N] [-metrics addr] capture.pcap")
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
	protos, err := stream.ParseProtocols(*proto)
	if err != nil {
		log.Print(err)
		return 2
	}

	// -readers defaults to the shard count: parallel ingest engages
	// exactly when the analysis side fans out too.
	if *readers <= 0 {
		*readers = *workers
	}
	if *follow || *workers > 1 || *readers > 1 {
		if *saveBaseline != "" {
			log.Print("-save-baseline needs the offline single-analyzer mode (raw samples are not retained across shards)")
			return 2
		}
		return runStreaming()
	}

	if *tracePath != "" {
		log.Print("note: -trace records the streaming pipeline; ignored in offline single-analyzer mode (use -follow or -workers > 1)")
	}

	var journal *obs.Journal
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer jf.Close()
		journal = obs.NewJournal(jf)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Print(err)
		return 1
	}
	defer f.Close()

	var analyzer *core.Analyzer
	if *names {
		analyzer = core.NewAnalyzer(core.NamesFromTopology(topology.Build()))
	} else {
		analyzer = core.NewAnalyzer(nil)
	}
	if err := analyzer.EnableProtocolNames(protos...); err != nil {
		log.Print(err)
		return 2
	}
	reg := obs.NewRegistry()
	analyzer.Instrument(reg, journal)
	if *pointCap > 0 {
		analyzer.Physical().SetMaxSamplesPerSeries(*pointCap)
	}

	exit := 0
	extra := map[string]http.Handler{}
	var recorder *historian.Recorder
	if *historianDir != "" {
		hist, err := historian.Open(*historianDir, historian.Options{Registry: reg})
		if err != nil {
			log.Print(err)
			return 1
		}
		defer func() {
			if err := hist.Close(); err != nil {
				log.Printf("warning: historian close failed: %v", err)
			}
		}()
		recorder = historian.NewRecorder(hist)
		analyzer.SetFrameObserver(recorder)
		extra["/query"] = historian.QueryHandler(hist)
		log.Printf("recording measurements into historian at %s", *historianDir)
	}
	if *metricsAddr != "" {
		addr, shutdown, err := obs.ServeWith(*metricsAddr, reg, journal, extra)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer shutdown()
		log.Printf("serving metrics on http://%s/", addr)
	}
	if err := analyzer.ReadPCAP(f); err != nil {
		// A truncated or partially corrupt capture still carries data:
		// report what parsed, but exit non-zero so scripts notice.
		fmt.Fprintf(os.Stderr, "profiler: warning: capture read stopped early: %v (reporting partial results)\n", err)
		exit = 1
	}
	if recorder != nil {
		if err := recorder.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "profiler: warning: historian write failed: %v\n", err)
			exit = 1
		}
	}

	code := printReports(analyzer.Partial(), reg, journal,
		func() { printPhysical(analyzer) }, func() { printTiming(analyzer) }, *baselinePath)
	if code != 0 {
		exit = code
	}
	if *saveBaseline != "" {
		base, err := ids.Train(analyzer)
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
		alerts := base.Scan(analyzer)
		fmt.Printf("== IDS scan against %s ==\n", *loadBaseline)
		if len(alerts) == 0 {
			fmt.Println("no deviations from baseline")
		}
		for _, al := range alerts {
			fmt.Println(al)
		}
		fmt.Println()
	}
	if err := journal.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "profiler: warning: journal write failed: %v\n", err)
		if exit == 0 {
			exit = 1
		}
	}
	return exit
}

// printReports renders every report both modes share — capture header,
// flows, compliance and dialects, clusters, Markov chains, ASDU types,
// pipeline stats — from one core.Partial, in -report order, then runs
// the drift actions. The offline mode passes its analyzer's Partial,
// the streaming mode the engine's merged final state; physical and
// timing print the two sections that offline need more than a Partial
// (raw sample series) and in streaming mode render differently.
// baseline is empty when the engine already did the comparison.
func printReports(p core.Partial, reg *obs.Registry, journal *obs.Journal, physical, timing func(), baseline string) int {
	want := map[string]bool{}
	for _, r := range strings.Split(*reports, ",") {
		want[strings.TrimSpace(r)] = true
	}
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
		printClusters(p.ClusterReport(5, 1202))
	}
	if want["markov"] {
		printMarkov(p.MarkovReport())
	}
	if want["types"] {
		fmt.Println("== ASDU type distribution (Table 7) ==")
		fmt.Println(core.FormatTypeTable(p.TypeDistribution()))
	}
	if want["physical"] {
		physical()
	}
	if want["timing"] {
		timing()
	}
	if want["stats"] {
		printStats(reg, journal)
	}
	return driftActions(p, flag.Arg(0), *profileLabel, *saveProfile, *pushURL, baseline)
}

// driftActions runs the profile-persistence, probe-push and
// baseline-comparison flags over the merged analysis state.
func driftActions(p core.Partial, source, label, savePath, pushURL, baselinePath string) int {
	if savePath != "" {
		prof := drift.NewProfile(label, source, p, time.Now())
		if err := drift.SaveProfile(savePath, prof); err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("saved profile %q (%d packets, %d connections) to %s",
			label, p.Packets, len(p.Chains), savePath)
	}
	if pushURL != "" {
		if err := pushPartial(pushURL, label, source, p); err != nil {
			log.Print(err)
			return 1
		}
	}
	if baselinePath != "" {
		base, err := drift.LoadProfile(baselinePath)
		if err != nil {
			log.Print(err)
			return 1
		}
		cur := drift.NewProfile(label, source, p, time.Now())
		rep := drift.Compare(base, cur, drift.DefaultThresholds())
		rep.WriteText(os.Stdout)
		fmt.Println()
	}
	return 0
}

// pushPartial is the probe half of the control-room fleet view: the
// merged analysis state, encoded with the drift profile codec, POSTed
// to an unchartedd /v1/{tenant}/partial endpoint where MergePartials
// folds it into the fleet-wide profile.
func pushPartial(url, label, source string, p core.Partial) error {
	prof := drift.NewProfile(label, source, p, time.Now())
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(prof.Encode()))
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

// printStats renders the observability registry: per-stage wall-time
// breakdown, then every counter (the malformed-frame causes and
// strict-invalid dialects appear here as labeled series), then
// histogram summaries.
func printStats(reg *obs.Registry, journal *obs.Journal) {
	snap := reg.Snapshot()
	fmt.Println("== Pipeline stats (observability registry) ==")

	if len(snap.Stages) > 0 {
		fmt.Println("stage timings:")
		fmt.Printf("  %-16s %10s %12s %12s %12s %12s\n", "stage", "calls", "total", "mean", "min", "max")
		for _, st := range snap.Stages {
			fmt.Printf("  %-16s %10d %12s %12s %12s %12s\n",
				st.Name, st.Count, roundDur(st.Total), roundDur(st.Mean), roundDur(st.Min), roundDur(st.Max))
		}
	}

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
	var histograms []obs.HistogramSnapshot
	for _, h := range snap.Histograms {
		if h.Name != obs.StageDurationMetric { // stages are summarised above
			histograms = append(histograms, h)
		}
	}
	if len(histograms) > 0 {
		fmt.Println("histograms:")
		for _, h := range histograms {
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

// roundDur trims a duration to a readable precision.
func roundDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}

func printTiming(a *core.Analyzer) {
	fmt.Println("== recovered reporting periods (timing characteristics) ==")
	for _, st := range a.StationTimings(20) {
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

func printPhysical(a *core.Analyzer) {
	fmt.Println("== Physical measurements (§6.4) ==")
	st := a.Physical()
	fmt.Printf("series extracted: %d\n", len(st.All()))
	fmt.Println("top normalized-variance series:")
	for i, s := range st.Ranked(10) {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-14s %-10s nvar=%.4g samples=%d\n",
			s.Key, s.Type.Acronym(), s.NormalizedVariance(), len(s.Samples))
	}
}

// runStreaming analyzes the capture through the declared pipeline
// runtime: the ProfilerGraph preset is the src→analyzer graph, hosted
// like every graph-running command's (pipeline.Host). With -follow the
// file is tailed until SIGINT/SIGTERM, otherwise it is read to EOF;
// either way the final merged state renders the same reports as the
// offline path.
func runStreaming() int {
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
		Root:        true,
		TracePath:   *tracePath,
		TraceSample: *traceSample,
		After: func(h *pipeline.Hosted) int {
			exit := 0
			switch {
			case h.Err != nil:
				fmt.Fprintf(os.Stderr, "profiler: warning: stream stopped early: %v (reporting partial results)\n", h.Err)
				exit = 1
			case h.Interrupted && !*follow:
				// An interrupt is how a followed capture ends; on a finished
				// one it cuts the read short like a damaged file does.
				fmt.Fprintln(os.Stderr, "profiler: warning: interrupted before the end of the capture (reporting partial results)")
				exit = 1
			}
			e := h.Runner.Analyzer().Engine()
			p := e.Final()
			code := printReports(p, h.Registry, h.Journal, func() { printPhysicalDigests(p.Physical) }, func() {
				fmt.Println("== recovered reporting periods (timing characteristics) ==")
				fmt.Println("(unavailable in streaming mode: raw per-point timestamps are not retained)")
				fmt.Println()
			}, "")
			if code != 0 {
				exit = code
			}
			if rep := e.DriftReport(); rep != nil {
				// The engine already diffed the final merged state against the
				// baseline on the last publish; print that report rather than
				// recomputing it.
				rep.WriteText(os.Stdout)
				fmt.Println()
			}
			return exit
		},
	}.Run()
}

// printPhysicalDigests is the streaming analogue of printPhysical,
// rendered from merged moment sketches instead of raw sample series.
func printPhysicalDigests(digests []physical.Digest) {
	fmt.Println("== Physical measurements (§6.4) ==")
	fmt.Printf("series extracted: %d\n", len(digests))
	fmt.Println("top normalized-variance series:")
	for i, d := range physical.RankDigests(digests, 2) {
		if i >= 8 {
			break
		}
		kind := "measurement"
		if d.Command {
			kind = "command"
		}
		fmt.Printf("  %s/%-6d %-11s nvar=%.4g samples=%d\n",
			d.Key.Station, d.Key.IOA, kind, d.NormalizedVariance(), d.Count)
	}
}
