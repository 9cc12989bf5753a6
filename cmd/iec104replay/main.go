// Command iec104replay turns a capture into a live outstation: it
// extracts one station's monitor-direction APDU stream from a pcap
// (classic or pcapng) and serves it over TCP with original timing —
// re-sequenced, answering STARTDT/TESTFR and general interrogations.
// Point any IEC 104 master, IDS or the profiler's live tooling at it
// to test against historical traffic.
//
// Usage:
//
//	iec104replay -station 10.0.1.39 -listen 127.0.0.1:2404 -speed 10 y1.pcap
//
// The -station address defaults to the busiest outstation in the
// capture.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"sort"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/station"
)

// event is one historical I-frame with its capture offset.
type event struct {
	offset time.Duration
	asdu   *iec104.ASDU
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("iec104replay: ")

	stationAddr := flag.String("station", "", "outstation IP to replay (default: busiest in capture)")
	listen := flag.String("listen", "127.0.0.1:2404", "listen address")
	speed := flag.Float64("speed", 1, "time compression factor (10 = 10x faster than recorded)")
	once := flag.Bool("once", false, "exit after serving one connection to completion")
	metrics := flag.String("metrics", "", "serve Prometheus /metrics and /debug/vars on this address")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: iec104replay [-station ip] [-listen addr] [-speed n] capture.pcap")
	}
	if *speed <= 0 {
		log.Fatal("-speed must be positive")
	}

	events, dialect, src, err := loadEvents(flag.Arg(0), *stationAddr)
	if err != nil {
		log.Fatal(err)
	}
	if len(events) == 0 {
		log.Fatalf("no monitor-direction APDUs from %s in capture", src)
	}
	log.Printf("replaying %d APDUs from %s (dialect %s) over %v of capture time at %gx",
		len(events), src, dialect, events[len(events)-1].offset.Round(time.Second), *speed)

	instrument := false
	if *metrics != "" {
		bound, stop, err := obs.ServeWith(*metrics, obs.Default, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		log.Printf("metrics on http://%s/metrics", bound)
		instrument = true
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("listening on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatal(err)
		}
		serve(conn, events, dialect, *speed, instrument)
		if *once {
			return
		}
	}
}

// loadEvents extracts the station's I-frames with capture-relative
// offsets, learning its dialect with the tolerant parser.
func loadEvents(path, want string) ([]event, iec104.Profile, netip.Addr, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, iec104.Profile{}, netip.Addr{}, err
	}
	defer f.Close()
	r, err := pcap.NewAutoReader(f)
	if err != nil {
		return nil, iec104.Profile{}, netip.Addr{}, err
	}

	parser := iec104.NewTolerantParser()
	byStation := map[netip.Addr][]event{}
	var base time.Time
	for {
		data, ci, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, iec104.Profile{}, netip.Addr{}, err
		}
		pkt, err := pcap.DecodePacket(r.LinkType(), ci, data)
		if err != nil || len(pkt.TCP.Payload) == 0 || pkt.TCP.SrcPort != 2404 {
			continue // monitor direction only: outstation side sends from 2404
		}
		if base.IsZero() {
			base = ci.Timestamp
		}
		apdus, err := parser.Parse(pkt.IP.Src.String(), pkt.TCP.Payload)
		if err != nil {
			continue
		}
		for _, a := range apdus {
			if a.Format != iec104.FormatI || a.ASDU == nil || !a.ASDU.Type.IsMonitor() {
				continue
			}
			byStation[pkt.IP.Src] = append(byStation[pkt.IP.Src], event{
				offset: ci.Timestamp.Sub(base),
				asdu:   a.ASDU,
			})
		}
	}

	var src netip.Addr
	if want != "" {
		src, err = netip.ParseAddr(want)
		if err != nil {
			return nil, iec104.Profile{}, netip.Addr{}, fmt.Errorf("bad -station %q: %w", want, err)
		}
	} else {
		// Busiest station wins.
		var addrs []netip.Addr
		for a := range byStation {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool {
			if len(byStation[addrs[i]]) != len(byStation[addrs[j]]) {
				return len(byStation[addrs[i]]) > len(byStation[addrs[j]])
			}
			return addrs[i].Compare(addrs[j]) < 0
		})
		if len(addrs) == 0 {
			return nil, iec104.Profile{}, netip.Addr{}, fmt.Errorf("no IEC 104 outstation traffic in %s", path)
		}
		src = addrs[0]
	}
	events := byStation[src]
	// Rebase offsets to the station's first frame.
	if len(events) > 0 {
		first := events[0].offset
		for i := range events {
			events[i].offset -= first
		}
	}
	dialect := iec104.Standard
	if p, ok := parser.ProfileFor(src.String()); ok {
		dialect = p
	}
	return events, dialect, src, nil
}

// serve replays the stream to one connection using the live-station
// point table for interrogations (latest value per IOA).
func serve(conn net.Conn, events []event, dialect iec104.Profile, speed float64, instrument bool) {
	defer conn.Close()
	log.Printf("connection from %s", conn.RemoteAddr())

	// Build the replay outstation: latest value per IOA answers GIs.
	rtu := station.NewOutstation(events[0].asdu.CommonAddr)
	rtu.Profile = dialect
	if instrument {
		// Per-connection outstations share the process registry, so
		// counters accumulate across replayed connections.
		rtu.Instrument(obs.Default, nil)
	}
	seen := map[uint32]bool{}
	for _, ev := range events {
		for _, obj := range ev.asdu.Objects {
			if !seen[obj.IOA] {
				seen[obj.IOA] = true
				rtu.AddPoint(station.PointDef{IOA: obj.IOA, Type: ev.asdu.Type, Value: obj.Value.Float})
			}
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rtu.ServeConn(conn)
	}()

	// Wait for the master to activate transfer (STARTDT + usually a
	// general interrogation) before the historical clock starts.
	activation := time.Now().Add(30 * time.Second)
	for !rtu.HasActiveLink() {
		if time.Now().After(activation) {
			log.Printf("peer never activated transfer; closing")
			return
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-done:
			log.Printf("peer disconnected before activating")
			return
		}
	}

	start := time.Now()
	played := 0
	for _, ev := range events {
		due := start.Add(time.Duration(float64(ev.offset) / speed))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-done:
				log.Printf("peer disconnected after %d/%d APDUs", played, len(events))
				return
			}
		}
		if err := rtu.Broadcast(ev.asdu); err != nil {
			log.Printf("replay stopped after %d/%d APDUs: %v", played, len(events), err)
			return
		}
		played++
	}
	log.Printf("replayed %d APDUs", played)
	conn.Close()
	<-done
}
