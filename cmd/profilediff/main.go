// Command profilediff is the longitudinal comparison tool from §6 of
// the paper: it persists behavioral profiles of a bulk-power capture
// and diffs two of them statistically — Markov-chain divergence,
// timing and flow-duration distribution shifts, topology churn,
// compliance-flag churn and physical-range shifts — so the paper's
// Nov 2017 vs Mar 2019 experiment is a two-command reproduction.
//
// Usage:
//
//	profilediff save -out era-a.prof -label 2017-11 capture-a.pcap
//	profilediff save -out era-b.prof -label 2019-03 capture-b.pcap
//	profilediff diff era-a.prof era-b.prof
//	profilediff diff -json era-a.prof era-b.prof > report.json
//	profilediff watch -baseline era-a.prof growing.pcap
//
// Exit status of diff follows the diff(1) convention: 0 when no drift
// is found, 1 when the profiles drifted, 2 on trouble.
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"uncharted/internal/drift"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pipeline"
)

func main() {
	os.Exit(run())
}

func usage() int {
	log.Print(`usage:
  profilediff save  [-out file] [-label text] [-workers N] capture.pcap
  profilediff diff  [-json] [-min-severity N] a.prof b.prof
  profilediff watch -baseline a.prof [-workers N] [-interval d] [-metrics addr] growing.pcap`)
	return 2
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("profilediff: ")
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "save":
		return runSave(os.Args[2:])
	case "diff":
		return runDiff(os.Args[2:])
	case "watch":
		return runWatch(os.Args[2:])
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		return usage()
	}
}

// runSave analyzes a capture and persists the merged state as a
// versioned profile file.
func runSave(args []string) int {
	fs := flag.NewFlagSet("save", flag.ExitOnError)
	out := fs.String("out", "profile.prof", "output profile path")
	label := fs.String("label", "", "label stored in the profile (default: capture path)")
	workers := fs.Int("workers", 1, "analysis shards")
	names := fs.Bool("names", true, "label addresses with the simulated topology's names")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return usage()
	}
	path := fs.Arg(0)
	if *label == "" {
		*label = path
	}

	return pipeline.Host{
		Graph: func(*trace.Recorder) (*pipeline.Config, map[string]any) {
			return pipeline.ProfilerGraph(pipeline.ProfilerPreset{Path: path, Workers: *workers, Names: *names})
		},
		Trouble: 2,
		After: func(h *pipeline.Hosted) int {
			switch {
			case h.Err != nil:
				log.Printf("reading %s: %v", path, h.Err)
				return 2
			case h.Interrupted:
				log.Printf("interrupted before the end of %s: no profile saved", path)
				return 2
			}
			p := h.Runner.Analyzer().Engine().Final()
			prof := drift.NewProfile(*label, path, p, time.Now())
			if err := drift.SaveProfile(*out, prof); err != nil {
				log.Print(err)
				return 2
			}
			log.Printf("saved profile %q to %s: %d packets, %d connections, %d points, window %s .. %s",
				*label, *out, p.Packets, len(p.Chains), len(p.Physical),
				p.First.Format("2006-01-02 15:04:05"), p.Last.Format("15:04:05"))
			return 0
		},
	}.Run()
}

// runDiff loads two profiles and prints the drift report.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	minSev := fs.Int("min-severity", drift.SevInfo, "exit 1 only when a finding reaches this severity (1=info 2=warn 3=critical)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return usage()
	}
	a, err := drift.LoadProfile(fs.Arg(0))
	if err != nil {
		log.Print(err)
		return 2
	}
	b, err := drift.LoadProfile(fs.Arg(1))
	if err != nil {
		log.Print(err)
		return 2
	}
	rep := drift.Compare(a, b, drift.DefaultThresholds())
	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			log.Print(err)
			return 2
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	if rep.MaxSeverity() >= *minSev && len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

// runWatch tails a growing capture, diffing the rolling profile
// against the stored baseline on every snapshot: the paper's
// longitudinal comparison as a monitor instead of a post-hoc study.
func runWatch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	basePath := fs.String("baseline", "", "stored profile to diff the live capture against (required)")
	workers := fs.Int("workers", 2, "analysis shards")
	interval := fs.Duration("interval", 2*time.Second, "snapshot and comparison period")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /profile and /drift on this address")
	names := fs.Bool("names", true, "label addresses with the simulated topology's names")
	fs.Parse(args)
	if fs.NArg() != 1 || *basePath == "" {
		return usage()
	}
	baseline, err := drift.LoadProfile(*basePath)
	if err != nil {
		log.Print(err)
		return 2
	}
	log.Printf("watching %s against profile %q (%s); interrupt to drain and print the final report",
		fs.Arg(0), baseline.Meta.Label, baseline.Meta.SavedAt.Format("2006-01-02"))

	return pipeline.Host{
		Graph: func(*trace.Recorder) (*pipeline.Config, map[string]any) {
			return pipeline.ProfilerGraph(pipeline.ProfilerPreset{
				Path:          fs.Arg(0),
				Follow:        true,
				Workers:       *workers,
				SnapshotEvery: *interval,
				Names:         *names,
				BaselinePath:  *basePath,
			})
		},
		Addr:    *metricsAddr,
		Trouble: 2,
		After: func(h *pipeline.Hosted) int {
			if h.Err != nil {
				log.Printf("stream stopped early: %v", h.Err)
				return 2
			}
			rep := h.Runner.Analyzer().DriftReport()
			if rep == nil {
				log.Print("no snapshot was published before shutdown")
				return 2
			}
			rep.WriteText(os.Stdout)
			if rep.MaxSeverity() >= drift.SevWarn {
				return 1
			}
			return 0
		},
	}.Run()
}
