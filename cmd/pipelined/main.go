// Command pipelined runs declared pipeline graphs: a JSON/JSONC
// config names pipelines as DAGs of registered segments — inputs,
// filters, analysis stages and outputs — and one process hosts the
// whole fleet of them side by side. Interrupting it stops the inputs
// and drains every graph; analyzers publish their exact final state
// on the way out.
//
// The HTTP surface (with -addr) serves /metrics and /debug/vars, a
// combined /statusz showing every pipeline's live graph (per-segment
// state, queue depths, throughput, stalls), and every
// segment-registered endpoint under /pipelines/{pipeline}/...
// (profiles, drift reports, historian queries, probe receivers).
//
// Usage:
//
//	pipelined config.jsonc                 # run until inputs exhaust or SIGINT
//	pipelined -addr :9190 config.jsonc     # with the HTTP surface
//	pipelined -validate config.jsonc ...   # parse + schema + graph checks only
//	pipelined -segments                    # print the segment catalog
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"uncharted/internal/obs/trace"
	"uncharted/internal/pipeline"
)

func main() {
	os.Exit(run())
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("pipelined: ")

	addr := flag.String("addr", "", "serve /metrics, /statusz and /pipelines/... on this address (e.g. :9190)")
	journalPath := flag.String("journal", "", "append structured events from every pipeline to this JSONL file")
	validate := flag.Bool("validate", false, "parse, schema-check and graph-check the config(s), then exit (0 = valid)")
	segments := flag.Bool("segments", false, "print the segment catalog and exit")
	flag.Parse()

	if *segments {
		printCatalog()
		return 0
	}
	if *validate {
		return runValidate(flag.Args())
	}
	if flag.NArg() != 1 {
		log.Print("usage: pipelined [-addr :9190] [-journal events.jsonl] config.jsonc")
		return 2
	}

	cfg, err := pipeline.Load(flag.Arg(0))
	if err != nil {
		printErrors(err)
		return 1
	}

	log.Printf("running %d pipeline(s); interrupt to drain", len(cfg.Pipelines))
	return pipeline.Host{
		Graph:       func(*trace.Recorder) (*pipeline.Config, map[string]any) { return cfg, nil },
		JournalPath: *journalPath,
		Addr:        *addr,
		After: func(h *pipeline.Hosted) int {
			exit := 0
			if h.Err != nil {
				printErrors(h.Err)
				exit = 1
			}
			elapsed := h.Elapsed.Round(time.Millisecond)
			if h.Interrupted {
				log.Printf("interrupted after %s, graphs drained", elapsed)
			} else {
				log.Printf("all inputs exhausted in %s", elapsed)
			}
			for _, st := range h.Runner.Status() {
				var pkts, stalls int64
				for _, s := range st.Segments {
					pkts = max(pkts, s.PktsOut)
					stalls += s.Stalls
				}
				log.Printf("pipeline %s: %d segments, %d packets at the widest edge, %d stalls",
					st.Name, len(st.Segments), pkts, stalls)
			}
			return exit
		},
	}.Run()
}

// runValidate dry-runs every config: parse, schema-check and
// graph-check, without building a single segment. Errors name the
// config path and line.
func runValidate(paths []string) int {
	if len(paths) == 0 {
		log.Print("usage: pipelined -validate config.jsonc [more.jsonc ...]")
		return 2
	}
	exit := 0
	for _, path := range paths {
		cfg, err := pipeline.Load(path)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			printErrors(err)
			exit = 1
			continue
		}
		total := 0
		for _, pc := range cfg.Pipelines {
			total += len(pc.Nodes)
		}
		log.Printf("%s: ok (%d pipelines, %d segments)", path, len(cfg.Pipelines), total)
	}
	return exit
}

// printErrors prints one line per joined error so a config with five
// problems reports all five.
func printErrors(err error) {
	for _, line := range strings.Split(err.Error(), "\n") {
		log.Print(line)
	}
}

// printCatalog renders the segment catalog: every registered kind,
// its role, ports and parameter schema.
func printCatalog() {
	fmt.Println("Registered segments (config key: \"segment\"):")
	fmt.Println()
	role := ""
	for _, s := range pipeline.Catalog() {
		if string(s.Role) != role {
			role = string(s.Role)
			fmt.Printf("%s segments:\n", strings.ToUpper(role[:1])+role[1:])
		}
		ports := portLabel(s.In) + " -> " + portLabel(s.Out)
		fmt.Printf("  %-14s %-22s %s\n", s.Kind, ports, s.Doc)
		for _, p := range s.Params {
			req := ""
			if p.Required {
				req = ", required"
			} else if p.Default != nil {
				req = fmt.Sprintf(", default %v", p.Default)
			}
			fmt.Printf("      %-18s %s%s — %s\n", p.Name, p.Type, req, p.Doc)
		}
		fmt.Println()
	}
}

func portLabel(p pipeline.PortType) string {
	if p == pipeline.PortNone {
		return "(none)"
	}
	return string(p)
}
