// Command unchartedd is the control-room daemon: it hosts N tenants —
// balancing authorities, capture eras, single captures — each a
// pipeline of one segment graph with its own engine and historian
// namespace, behind one multi-tenant HTTP API with a snapshot-keyed
// response cache and remote-probe aggregation (internal/service).
//
// The config is one JSONC document (README "Control-room service"): a
// "tenants" list of shorthand sources (sim, pcap, follow, probe) and a
// "pipelines" list of declared segment graphs, each hosted as the
// tenant of its name. A key the loader does not know is an error.
//
// Every tenant serves /v1/{tenant}/profile, /drift, /query, /statusz,
// /fleet and /partial (remote probes post drift-codec partials there);
// its pipeline's segment endpoints are under /pipelines/{tenant}/...,
// the combined graph view is /statusz, and /metrics carries the
// service's series with a tenant label and the graph's with the
// tenant's name as its pipeline label. Graph lines (a segment failure,
// DRIFT) go to the daemon log, prefixed [tenant].
//
// With an HTTP address (the config's listen, or -addr) the daemon
// serves until SIGINT/SIGTERM; with none it exits once every tenant's
// input is exhausted. Either way every tenant drains (final profiles
// publish) before exit; the exit status is 1 when a tenant's ingest or
// the journal failed (each failure logged as pipeline <tenant> segment
// <id>), 2 on a usage error.
//
// Usage:
//
//	unchartedd [-addr :9180] [-journal events.jsonl] config.jsonc
//	unchartedd -validate config.jsonc ...   # parse, schema- and graph-check only
//	unchartedd -segments                    # print the segment catalog
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"uncharted/internal/obs"
	"uncharted/internal/pipeline"
	"uncharted/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "", "HTTP listen address (overrides the config's listen; with neither, exit once every input is exhausted)")
	journalPath := flag.String("journal", "", "append structured pipeline events to this JSONL file")
	validate := flag.Bool("validate", false, "parse, schema-check and graph-check the config(s), then exit (0 = valid)")
	segments := flag.Bool("segments", false, "print the segment catalog and exit")
	flag.Parse()

	switch {
	case *segments:
		printCatalog()
		return 0
	case *validate:
		return runValidate(flag.Args())
	case flag.NArg() != 1:
		log.Print("usage: unchartedd [-addr :9180] [-journal events.jsonl] config.jsonc")
		return 2
	}
	cfg, err := service.LoadConfig(flag.Arg(0))
	if err != nil {
		printErrors(err)
		return 1
	}
	listen := cmp.Or(*addr, cfg.Listen)

	var journal *obs.Journal
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			log.Printf("journal: %v", err)
			return 1
		}
		defer jf.Close()
		journal = obs.NewJournal(jf)
	}

	reg := obs.NewRegistry()
	svc, err := service.New(cfg, reg, journal)
	if err != nil {
		log.Printf("%v", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if listen != "" {
		// Bind before any tenant ingests: a taken port then costs nothing
		// but the exit, with no historian written to and left unsynced.
		bound, shutdown, err := obs.ServeWith(listen, reg, journal, svc.Endpoints())
		if err != nil {
			log.Printf("listen %s: %v", listen, err)
			return 1
		}
		defer shutdown()
		svc.Start(ctx)
		log.Printf("unchartedd: serving %d tenants on http://%s/v1/", len(svc.Tenants()), bound)
	} else {
		// Nothing to serve: the inputs running out ends the run like a
		// signal does.
		svc.Start(ctx)
		go func() {
			svc.Wait()
			stop()
		}()
		log.Printf("unchartedd: running %d tenants until their inputs are exhausted", len(svc.Tenants()))
	}

	<-ctx.Done()
	log.Printf("unchartedd: draining tenants")
	exit := 0
	if err := svc.Drain(); err != nil {
		printErrors(err)
		exit = 1
	}
	if err := journal.Err(); err != nil {
		log.Printf("warning: journal write failed: %v", err)
		exit = 1
	}
	return exit
}

// runValidate dry-runs every config: parse, schema-check, compile every
// tenant and graph-check every pipeline, without building a single
// segment. Errors name the config path and line.
func runValidate(paths []string) int {
	if len(paths) == 0 {
		log.Print("usage: unchartedd -validate config.jsonc [more.jsonc ...]")
		return 2
	}
	exit := 0
	for _, path := range paths {
		cfg, err := service.LoadConfig(path)
		if err != nil {
			printErrors(err)
			exit = 1
			continue
		}
		segs := 0
		for _, pc := range cfg.Pipelines {
			segs += len(pc.Nodes)
		}
		log.Printf("%s: ok (%d tenants, %d pipelines, %d segments)", path, len(cfg.Tenants), len(cfg.Pipelines), segs)
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
