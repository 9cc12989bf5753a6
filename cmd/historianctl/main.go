// Command historianctl inspects and maintains a historian directory
// offline — the operational companion to the pipeline's embedded
// store.
//
// Usage:
//
//	historianctl ls -dir hist/
//	historianctl get -dir hist/ -station O29 -ioa 3001 -from 2019-06-01T12:00:00Z
//	historianctl get -dir hist/ -station O29 -ioa 3001 -step 1m
//	historianctl export -dir hist/ -o dump.csv
//	historianctl compact -dir hist/ -retention 8760h -downsample-after 720h
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"uncharted/internal/historian"
)

func main() {
	os.Exit(run())
}

func usage() int {
	log.Print("usage: historianctl <ls|get|export|compact> -dir DIR [options]")
	return 2
}

func run() int {
	log.SetFlags(0)
	log.SetPrefix("historianctl: ")
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "ls":
		return runLs(os.Args[2:])
	case "get":
		return runGet(os.Args[2:])
	case "export":
		return runExport(os.Args[2:])
	case "compact":
		return runCompact(os.Args[2:])
	default:
		return usage()
	}
}

// open opens an existing historian. historian.Open creates what it is
// pointed at, which suits the engine's writer but not an inspection
// tool: a mistyped -dir would become an empty historian that lists
// nothing and exits 0. So the directory must already hold a segment.
func open(dir string, opts historian.Options) (*historian.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".useg") {
			return historian.Open(dir, opts)
		}
	}
	return nil, fmt.Errorf("%s is not a historian directory: it holds no seg-*.useg segment", dir)
}

// runLs prints the point catalog: one line per stored point with its
// sample count, compressed footprint, and time extent.
func runLs(args []string) int {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("dir", "", "historian directory")
	fs.Parse(args)
	st, err := open(*dir, historian.Options{})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer st.Close()
	cat := st.Catalog()
	fmt.Printf("%-10s %8s %-10s %-4s %10s %8s %10s  %-20s %-20s\n",
		"STATION", "IOA", "TYPE", "DIR", "SAMPLES", "BLOCKS", "BYTES", "FIRST", "LAST")
	var samples, bytes int64
	for _, pi := range cat {
		fmt.Println(lsRow(pi))
		samples += pi.Samples
		bytes += pi.Bytes
	}
	if samples > 0 {
		fmt.Printf("\n%d points, %d samples, %d compressed bytes (%.1fx vs 16 B/sample raw)\n",
			len(cat), samples, bytes, float64(samples*16)/float64(bytes))
	}
	return 0
}

// lsRow formats one catalog line. The type column is the point type's
// own acronym: a PointType carries its dialect in the high byte, so it
// must not be narrowed to an IEC 104 TypeID.
func lsRow(pi historian.PointInfo) string {
	dir := "mon"
	if pi.Command {
		dir = "cmd"
	}
	return fmt.Sprintf("%-10s %8d %-10s %-4s %10d %8d %10d  %-20s %-20s",
		pi.Key.Station, pi.Key.IOA, pi.Type.Acronym(), dir,
		pi.Samples, pi.Blocks, pi.Bytes,
		pi.First.Format("2006-01-02T15:04:05"), pi.Last.Format("2006-01-02T15:04:05"))
}

// pointFlags adds the flags shared by get and export.
func pointFlags(fs *flag.FlagSet) (dir, station *string, ioa *uint, from, to *string, step *time.Duration) {
	dir = fs.String("dir", "", "historian directory")
	station = fs.String("station", "", "station (outstation name or address)")
	ioa = fs.Uint("ioa", 0, "information object address")
	from = fs.String("from", "", "range start (RFC 3339 or unix nanoseconds; empty = unbounded)")
	to = fs.String("to", "", "range end (RFC 3339 or unix nanoseconds; empty = unbounded)")
	step = fs.Duration("step", 0, "downsample into buckets of this width (0 = raw samples)")
	return
}

func parseTimeArg(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(0, n).UTC(), nil
	}
	return time.Parse(time.RFC3339, s)
}

// runGet prints one point's samples (or downsampled buckets) as text.
func runGet(args []string) int {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	dir, station, ioa, fromS, toS, step := pointFlags(fs)
	fs.Parse(args)
	st, err := open(*dir, historian.Options{})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer st.Close()
	from, err := parseTimeArg(*fromS)
	if err != nil {
		log.Printf("-from: %v", err)
		return 2
	}
	to, err := parseTimeArg(*toS)
	if err != nil {
		log.Printf("-to: %v", err)
		return 2
	}
	key := historian.PointKey{Station: *station, IOA: uint32(*ioa)}
	if *step > 0 {
		buckets, err := st.Downsample(key, from, to, *step)
		if err != nil {
			log.Print(err)
			return 1
		}
		for _, b := range buckets {
			fmt.Printf("%s min=%g max=%g mean=%g n=%d\n",
				b.Start.Format(time.RFC3339), b.Min, b.Max, b.Mean, b.Count)
		}
		return 0
	}
	samples, err := st.Query(key, from, to)
	if err != nil {
		log.Print(err)
		return 1
	}
	for _, s := range samples {
		fmt.Printf("%s %g\n", s.T.Format(time.RFC3339Nano), s.V)
	}
	return 0
}

// runExport writes samples as CSV (station,ioa,time,value) — the whole
// store, or one point with -station/-ioa.
func runExport(args []string) int {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir, station, ioa, fromS, toS, _ := pointFlags(fs)
	out := fs.String("o", "-", "output file (- = stdout)")
	fs.Parse(args)
	st, err := open(*dir, historian.Options{})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer st.Close()
	from, err := parseTimeArg(*fromS)
	if err != nil {
		log.Printf("-from: %v", err)
		return 2
	}
	to, err := parseTimeArg(*toS)
	if err != nil {
		log.Printf("-to: %v", err)
		return 2
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			return 1
		}
		// Error paths drop the close error; the success path checks it
		// below, and closing twice is harmless.
		defer f.Close()
		w = f
	}
	cw := csv.NewWriter(w)
	cw.Write([]string{"station", "ioa", "time", "value"})

	keys := []historian.PointKey{}
	if *station != "" {
		keys = append(keys, historian.PointKey{Station: *station, IOA: uint32(*ioa)})
	} else {
		for _, pi := range st.Catalog() {
			keys = append(keys, pi.Key)
		}
	}
	rows := 0
	for _, key := range keys {
		samples, err := st.Query(key, from, to)
		if err != nil {
			log.Print(err)
			return 1
		}
		ioaStr := strconv.FormatUint(uint64(key.IOA), 10)
		for _, s := range samples {
			cw.Write([]string{key.Station, ioaStr, s.T.Format(time.RFC3339Nano),
				strconv.FormatFloat(s.V, 'g', -1, 64)})
			rows++
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		log.Print(err)
		return 1
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			log.Print(err)
			return 1
		}
	}
	log.Printf("exported %d samples from %d point(s)", rows, len(keys))
	return 0
}

// runCompact seals the active segment, then applies retention and
// age-based downsampling.
func runCompact(args []string) int {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "historian directory")
	retention := fs.Duration("retention", 0, "drop sealed segments older than this (0 = keep)")
	dsAfter := fs.Duration("downsample-after", 0, "downsample sealed segments older than this (0 = never)")
	dsStep := fs.Duration("downsample-step", time.Minute, "bucket width for downsampling")
	nowS := fs.String("now", "", "reference time (RFC 3339; default wall clock)")
	fs.Parse(args)
	if *dir == "" {
		log.Print("-dir is required")
		return 2
	}
	now := time.Now()
	if *nowS != "" {
		t, err := time.Parse(time.RFC3339, *nowS)
		if err != nil {
			log.Printf("-now: %v", err)
			return 2
		}
		now = t
	}
	st, err := open(*dir, historian.Options{
		Retention:       *retention,
		DownsampleAfter: *dsAfter,
		DownsampleStep:  *dsStep,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	defer st.Close()
	// Seal the resumed active segment first so a quiescent store can be
	// fully aged out.
	if err := st.Rotate(); err != nil {
		log.Print(err)
		return 1
	}
	if err := st.Compact(now); err != nil {
		log.Print(err)
		return 1
	}
	log.Printf("compacted %s (retention=%s downsample-after=%s)", *dir, *retention, *dsAfter)
	return 0
}
