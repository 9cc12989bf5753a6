// Command unchartedd is the control-room daemon: it hosts N tenants —
// balancing authorities, capture eras, single captures — each a hosted
// segment graph with its own engine and historian namespace, behind
// one multi-tenant HTTP API with a snapshot-keyed response cache and
// remote-probe aggregation (internal/service).
//
// The tenant list comes from a JSON config file:
//
//	{
//	  "listen": ":9180",
//	  "historian_root": "/var/lib/uncharted",
//	  "tenants": [
//	    {"name": "east", "source": {"kind": "sim", "year": 1, "seed": 7, "speed": 60},
//	     "workers": 2, "historian": true},
//	    {"name": "west", "source": {"kind": "pcap", "path": "west.pcap"}},
//	    {"name": "fleet", "source": {"kind": "probe"}}
//	  ]
//	}
//
// The query surface per tenant is the same one the single-engine
// commands serve — /v1/{tenant}/profile, /drift, /query, /statusz —
// plus /v1/{tenant}/partial, where remote probes (profiler -push) post
// drift-codec partials that merge into the tenant's fleet profile at
// /v1/{tenant}/fleet. /metrics carries every tenant's series with a
// tenant label.
//
// SIGINT/SIGTERM drains every tenant's engine gracefully (shards
// finish their batches, final profiles publish) before exit; the exit
// status is 1 when a tenant's ingest or the journal failed.
//
// Usage:
//
//	unchartedd -config control-room.json
//	unchartedd -config control-room.json -addr :9180 -journal events.jsonl
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"uncharted/internal/obs"
	"uncharted/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	configPath := flag.String("config", "", "service config file (JSON); required")
	addr := flag.String("addr", "", "HTTP listen address (overrides the config's listen; default :9180)")
	journalPath := flag.String("journal", "", "append structured pipeline events to this JSONL file")
	flag.Parse()

	if *configPath == "" {
		flag.Usage()
		return 2
	}
	cfg, err := service.LoadConfig(*configPath)
	if err != nil {
		log.Printf("load config: %v", err)
		return 1
	}
	listen := cfg.Listen
	if *addr != "" {
		listen = *addr
	}
	if listen == "" {
		listen = ":9180"
	}

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

	// Bind before any tenant ingests: a taken port then costs nothing
	// but the exit, with no historian written to and left unsynced.
	bound, shutdown, err := obs.ServeWith(listen, reg, journal, svc.Endpoints())
	if err != nil {
		log.Printf("listen %s: %v", listen, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	svc.Start(ctx)
	log.Printf("unchartedd: serving %d tenants on http://%s/v1/", len(svc.Tenants()), bound)

	<-ctx.Done()
	log.Printf("unchartedd: draining tenants")
	svc.Drain()
	shutdown()
	exit := 0
	for _, name := range svc.Tenants() {
		if terr := svc.Tenant(name).Err(); terr != nil {
			log.Printf("tenant %s: %v", name, terr)
			exit = 1
		}
	}
	if err := journal.Err(); err != nil {
		log.Printf("warning: journal write failed: %v", err)
		exit = 1
	}
	return exit
}
