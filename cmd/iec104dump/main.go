// Command iec104dump prints the industrial traffic of a capture,
// Wireshark-style, frame by frame as the analyzer books it: TCP
// streams are reassembled (retransmissions dropped, torn frames
// rejoined), claimed by their dialect and decoded by its session. IEC
// 104 goes through the tolerant parser, so frames from outstations that
// kept legacy IEC 101 field sizes (the paper's O37/O28/O53/O58) decode
// correctly, with the detected dialect reported per endpoint. -proto
// switches dialect: c37118 or modbus dumps that dialect alone, auto
// claims each flow by registered port (content-sniffing the rest) and
// dumps the whole multi-protocol tap.
//
// Usage:
//
//	iec104dump -n 50 capture.pcap
//	iec104dump -proto auto mixed.pcap
//	iec104dump -proto modbus -q capture.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/pcap"
	"uncharted/internal/protocol"

	// Link the non-default dialects for -proto.
	_ "uncharted/internal/c37118"
	_ "uncharted/internal/modbus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iec104dump: ")

	limit := flag.Int("n", 0, "stop after this many printed frames (0 = all)")
	quiet := flag.Bool("q", false, "suppress per-frame lines; print only the summary")
	proto := flag.String("proto", "iec104", "protocol to dump: iec104 (tolerant parser), c37118, modbus, or auto (registry detection across all dialects)")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: iec104dump [-n N] [-q] [-proto auto|iec104|c37118|modbus] capture.pcap")
	}
	a := core.NewAnalyzer(nil)
	d := &dumper{limit: *limit, quiet: *quiet, tally: map[protocol.ID]*dialectTally{}}
	if *proto != "auto" {
		dial := protocol.ByName(*proto)
		if dial == nil {
			log.Fatalf("unknown protocol %q (want iec104, c37118, modbus or auto)", *proto)
		}
		d.only = dial
	}
	if err := a.EnableProtocolNames(*proto); err != nil {
		log.Fatal(err)
	}
	a.SetFrameObserver(d)

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewAutoReader(f)
	if err != nil {
		log.Fatal(err)
	}
	var (
		scratch []byte
		pkt     pcap.Packet
	)
	for !d.full() {
		data, ci, err := r.ReadPacketInto(scratch)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		scratch = data
		if pcap.DecodePacketInto(&pkt, r.LinkType(), ci, data) == nil {
			a.Feed(&pkt)
		}
	}
	if d.only != nil && d.only.ID() == protocol.IEC104 {
		printEndpoints(a)
		return
	}
	d.printSummary(a)
}

// dumper is the analyzer's FrameObserver: it prints each accepted frame
// of the dumped dialect (every dialect when only is nil) and tallies
// them.
type dumper struct {
	only         protocol.Dialect
	quiet        bool
	limit, shown int
	tally        map[protocol.ID]*dialectTally
}

// dialectTally accumulates per-dialect totals for the summary.
type dialectTally struct{ frames, points int }

// full reports whether -n frames have been printed.
func (d *dumper) full() bool { return d.limit > 0 && d.shown >= d.limit }

func (d *dumper) ObserveFrame(ev core.FrameEvent) {
	if (d.only != nil && ev.Proto != d.only.ID()) || d.full() {
		return
	}
	t := d.tally[ev.Proto]
	if t == nil {
		t = &dialectTally{}
		d.tally[ev.Proto] = t
	}
	t.frames++
	t.points += len(ev.Points)
	if d.quiet {
		return
	}
	src, dst := ev.Server, ev.Outstation
	if ev.FromOutstation {
		src, dst = dst, src
	}
	line := fmt.Sprintf("%s %15s > %-15s %-8s %-5s",
		ev.Time.Format("15:04:05.000000"), src, dst, ev.Proto, ev.Token)
	if ev.Proto == protocol.IEC104 && ev.Token.Class() == protocol.ClassData {
		line += fmt.Sprintf(" %-9s", iec104.TypeID(ev.Token.Code).Acronym())
	}
	if len(ev.Points) > 0 {
		p := ev.Points[0]
		line += fmt.Sprintf(" points=%d first{ioa=%d val=%.4g", len(ev.Points), p.IOA, p.V)
		if p.Command {
			line += " cmd"
		}
		line += "}"
	}
	fmt.Println(line)
	d.shown++
}

// printEndpoints prints the IEC 104 summary: every sending endpoint's
// frames, strict-parser rejections and detected dialect, then the
// capture's parse errors.
func printEndpoints(a *core.Analyzer) {
	fmt.Println("\nEndpoint dialects:")
	for _, sc := range a.Compliance().Stations {
		dialect := "(control frames only)"
		if sc.Detected {
			dialect = sc.Profile.String()
		}
		fmt.Printf("  %-16s frames=%-7d strict-invalid=%-6d dialect=%s\n", sc.Name, sc.Frames, sc.StrictInvalid, dialect)
	}
	fmt.Printf("  parse-errors=%d\n", a.ParseErrors)
}

// printSummary prints the per-dialect totals. A dialect's parse errors
// are its Dialects row's; IEC 104 has no row (see core.Analyzer.Dialects),
// so its errors are the rest of the analyzer's.
func (d *dumper) printSummary(a *core.Analyzer) {
	errs := map[protocol.ID]int{protocol.IEC104: a.ParseErrors}
	for _, ds := range a.Dialects() {
		errs[ds.Proto] = ds.ParseErrors
		errs[protocol.IEC104] -= ds.ParseErrors
	}
	fmt.Println("\nDialect summary:")
	ids := make([]protocol.ID, 0, len(d.tally))
	for id := range d.tally {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := d.tally[id]
		fmt.Printf("  %-8s frames=%-8d parse-errors=%-5d points=%d\n", id, t.frames, errs[id], t.points)
	}
}
