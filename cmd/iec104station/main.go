// Command iec104station runs live IEC 104 endpoints over real TCP: an
// outstation (controlled station) serving a point table, or a control
// station that dials one, interrogates it and tails its reports. The
// two modes interoperate with each other and with third-party IEC 104
// implementations.
//
// Usage:
//
//	iec104station serve -listen :2404 -ca 29 [-dialect legacy-cot8] [-reject]
//	iec104station poll  -addr 127.0.0.1:2404 -ca 29 [-dialect legacy-cot8]
//	iec104station poll  -addr 127.0.0.1:2404 -ca 29 -setpoint 7001=58.5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/station"
)

// serveMetrics starts the observability endpoint when addr is set and
// returns its shutdown function (a no-op for an empty addr). The
// handler also exposes /healthz and the net/http/pprof endpoints, so a
// long-lived station can be probed and profiled in place.
func serveMetrics(addr string) func() error {
	if addr == "" {
		return func() error { return nil }
	}
	bound, stop, err := obs.ServeWith(addr, obs.Default, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("metrics on http://%s/metrics", bound)
	return stop
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("iec104station: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: iec104station serve|poll [flags]")
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "poll":
		poll(os.Args[2:])
	default:
		log.Fatalf("unknown mode %q (want serve or poll)", os.Args[1])
	}
}

func parseDialect(s string) iec104.Profile {
	switch s {
	case "", "standard":
		return iec104.Standard
	case "legacy-cot8":
		return iec104.LegacyCOT
	case "legacy-ioa16":
		return iec104.LegacyIOA
	}
	log.Fatalf("unknown dialect %q (standard, legacy-cot8, legacy-ioa16)", s)
	return iec104.Standard
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:2404", "listen address")
	ca := fs.Uint("ca", 29, "common (ASDU) address")
	dialect := fs.String("dialect", "standard", "wire dialect")
	reject := fs.Bool("reject", false, "reset connections after the first APDU (the Fig. 9 pathology)")
	wander := fs.Duration("wander", 2*time.Second, "interval between spontaneous value updates (0 = static)")
	metrics := fs.String("metrics", "", "serve Prometheus /metrics and /debug/vars on this address")
	fs.Parse(args)

	rtu := station.NewOutstation(uint16(*ca))
	rtu.Profile = parseDialect(*dialect)
	rtu.RejectConnections = *reject
	rtu.Logf = log.Printf
	rtu.OnCommand = func(ioa uint32, v float64) {
		log.Printf("accepted setpoint IOA %d = %.2f", ioa, v)
	}
	// A generator RTU's point table.
	rtu.AddPoint(station.PointDef{IOA: 1001, Type: iec104.MMeTf, Value: 62})
	rtu.AddPoint(station.PointDef{IOA: 1002, Type: iec104.MMeTf, Value: 60.0})
	rtu.AddPoint(station.PointDef{IOA: 1003, Type: iec104.MMeNc, Value: 129.9})
	rtu.AddPoint(station.PointDef{IOA: 3001, Type: iec104.MDpNa, Value: 2})
	rtu.AddPoint(station.PointDef{IOA: 7001, Type: iec104.CSeNc, Value: 62})

	if *metrics != "" {
		rtu.Instrument(obs.Default, nil)
		defer serveMetrics(*metrics)()
	}
	addr, err := rtu.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("outstation ca=%d dialect=%s listening on %s", *ca, rtu.Profile, addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *wander > 0 {
		go func() {
			p := 62.0
			tick := time.NewTicker(*wander)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				p += 0.6 * float64((i%7)-3) / 3
				if err := rtu.SetValue(1001, p); err != nil {
					return
				}
			}
		}()
	}
	<-ctx.Done()
	rtu.Close()
}

func poll(args []string) {
	fs := flag.NewFlagSet("poll", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:2404", "outstation address")
	ca := fs.Uint("ca", 29, "common (ASDU) address")
	dialect := fs.String("dialect", "standard", "wire dialect")
	setpoint := fs.String("setpoint", "", "send one setpoint as ioa=value and exit")
	tail := fs.Duration("tail", 10*time.Second, "how long to tail spontaneous reports")
	metrics := fs.String("metrics", "", "serve Prometheus /metrics and /debug/vars on this address")
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	cs, err := station.Dial(dctx, *addr, parseDialect(*dialect))
	if err != nil {
		log.Fatal(err)
	}
	defer cs.Close()
	if *metrics != "" {
		cs.Instrument(obs.Default, nil)
		defer serveMetrics(*metrics)()
	}
	cs.OnMeasurement = func(m station.Measurement) {
		fmt.Printf("%s ioa=%-6d %-10s v=%-10.3f cause=%s\n",
			m.At.Format("15:04:05.000"), m.IOA, m.Type.Acronym(), m.Value, m.Cause)
	}

	if *setpoint != "" {
		parts := strings.SplitN(*setpoint, "=", 2)
		if len(parts) != 2 {
			log.Fatalf("bad -setpoint %q, want ioa=value", *setpoint)
		}
		ioa, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			log.Fatal(err)
		}
		val, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			log.Fatal(err)
		}
		if err := cs.SendSetpoint(ctx, uint16(*ca), uint32(ioa), val); err != nil {
			log.Fatal(err)
		}
		log.Printf("setpoint %d=%.3f confirmed", ioa, val)
		return
	}

	log.Printf("interrogating ca=%d", *ca)
	if err := cs.Interrogate(ctx, uint16(*ca)); err != nil {
		log.Fatal(err)
	}
	log.Printf("tailing spontaneous reports for %v (ctrl-c to stop)", *tail)
	select {
	case <-ctx.Done():
	case <-time.After(*tail):
	}
}
