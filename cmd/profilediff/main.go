// Command profilediff is the longitudinal comparison tool from §6 of
// the paper: it diffs two behavioral profiles of a bulk-power capture
// statistically — Markov-chain divergence, timing and flow-duration
// distribution shifts, topology churn, compliance-flag churn and
// physical-range shifts — so the paper's Nov 2017 vs Mar 2019
// experiment is a three-command reproduction. The profiles are saved by
// profiler -save-profile; profiler -baseline diffs a capture against a
// stored profile as it reads it, -follow included.
//
// Usage:
//
//	profiler -save-profile era-a.prof -profile-label 2017-11 capture-a.pcap
//	profiler -save-profile era-b.prof -profile-label 2019-03 capture-b.pcap
//	profilediff diff era-a.prof era-b.prof
//	profilediff diff -json era-a.prof era-b.prof > report.json
//
// Exit status of diff follows the diff(1) convention: 0 when no drift
// is found, 1 when the profiles drifted, 2 on trouble.
package main

import (
	"flag"
	"log"
	"os"

	"uncharted/internal/drift"
)

func main() {
	os.Exit(run())
}

func usage() int {
	log.Print(`usage: profilediff diff [-json] [-min-severity N] a.prof b.prof`)
	return 2
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("profilediff: ")
	if len(os.Args) < 2 {
		return usage()
	}
	if os.Args[1] != "diff" {
		log.Printf("unknown subcommand %q", os.Args[1])
		return usage()
	}
	return runDiff(os.Args[2:])
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
