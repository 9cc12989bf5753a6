package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// statusDoc mirrors the engine's /statusz JSON document
// (stream.Status); unchartedtop decodes it over the wire rather than
// importing the engine, so it stays a pure HTTP client of the
// observability contract.
type statusDoc struct {
	State          string      `json:"state"`
	UptimeSeconds  float64     `json:"uptime_seconds"`
	Workers        int         `json:"workers"`
	Policy         string      `json:"policy"`
	Packets        int64       `json:"packets"`
	Batches        int64       `json:"batches"`
	Snapshots      int64       `json:"snapshots"`
	LastTick       *time.Time  `json:"last_tick"`
	LastPublish    *time.Time  `json:"last_publish"`
	DroppedBatches int64       `json:"dropped_batches"`
	DroppedPackets int64       `json:"dropped_packets"`
	Stages         []stageRow  `json:"stages"`
	Shards         []shardRow  `json:"shards"`
	Readers        []readerRow `json:"readers"`
}

type readerRow struct {
	ID          int     `json:"id"`
	SegmentOff  int64   `json:"segment_off"`
	SegmentSize int64   `json:"segment_size"`
	BytesRead   int64   `json:"bytes_read"`
	MBPerSec    float64 `json:"mb_per_sec"`
	Done        bool    `json:"done"`
}

type stageRow struct {
	Stage string  `json:"stage"`
	Lane  string  `json:"lane"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

type shardRow struct {
	ID             int              `json:"id"`
	QueueLen       int              `json:"queue_len"`
	QueueCap       int              `json:"queue_cap"`
	Current        string           `json:"current_stage"`
	DroppedBatches int64            `json:"dropped_batches"`
	DroppedPackets int64            `json:"dropped_packets"`
	Stalls         map[string]int64 `json:"stalls_by_cause"`
	DropCauses     map[string]int64 `json:"drops_by_cause"`
}

// varsDoc is the slice of /debug/vars the dashboard uses.
type varsDoc struct {
	Journal        map[string]int64 `json:"journal_events"`
	JournalDropped int64            `json:"journal_dropped"`
	MemStats       *struct {
		HeapAlloc uint64 `json:"HeapAlloc"`
		NumGC     uint32 `json:"NumGC"`
	} `json:"memstats"`
}

// sample is one poll of the pipeline.
type sample struct {
	At     time.Time
	Addr   string
	Status statusDoc
	Vars   varsDoc
}

// render draws one frame. prev may be nil (first poll: rates show as
// "-"); rates are computed from the counter deltas over the wall time
// between the two samples.
func render(w io.Writer, prev, cur *sample) {
	st := &cur.Status
	fmt.Fprintf(w, "uncharted top — %s — state %s · uptime %s · policy %s · %d workers\n",
		cur.Addr, st.State, fmtUptime(st.UptimeSeconds), st.Policy, st.Workers)

	var dt float64
	if prev != nil {
		dt = cur.At.Sub(prev.At).Seconds()
	}
	rate := func(curV, prevV int64) string {
		if prev == nil || dt <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f/s", float64(curV-prevV)/dt)
	}
	pPrev := statusDoc{}
	if prev != nil {
		pPrev = prev.Status
	}
	fmt.Fprintf(w, "packets %d (%s) · batches %d (%s) · snapshots %d (changed %s, checked %s) · dropped %d batches / %d packets (%s)\n",
		st.Packets, rate(st.Packets, pPrev.Packets),
		st.Batches, rate(st.Batches, pPrev.Batches),
		st.Snapshots, age(cur.At, st.LastPublish), age(cur.At, st.LastTick),
		st.DroppedBatches, st.DroppedPackets, rate(st.DroppedPackets, pPrev.DroppedPackets))

	j := cur.Vars.Journal
	heap, gc := "-", "-"
	if ms := cur.Vars.MemStats; ms != nil {
		heap = fmt.Sprintf("%.1f MiB", float64(ms.HeapAlloc)/(1<<20))
		gc = fmt.Sprintf("%d", ms.NumGC)
	}
	fmt.Fprintf(w, "alerts %d · drift %d · journal drops %d · heap %s · gc %s\n\n",
		j["alert"], j["drift"], cur.Vars.JournalDropped, heap, gc)

	fmt.Fprintf(w, "%-5s %-22s %-10s %10s %10s  %-18s %s\n",
		"SHARD", "QUEUE", "STAGE", "DROP-B", "DROP-P", "STALLS", "DROPS-BY-CAUSE")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "%-5d %-22s %-10s %10d %10d  %-18s %s\n",
			sh.ID, queueBar(sh.QueueLen, sh.QueueCap), sh.Current,
			sh.DroppedBatches, sh.DroppedPackets,
			causeString(sh.Stalls), causeString(sh.DropCauses))
	}

	if len(st.Readers) > 0 {
		fmt.Fprintf(w, "\n%-7s %-22s %14s %14s %10s\n",
			"READER", "SEGMENT", "BYTES", "RATE", "STATE")
		for _, r := range st.Readers {
			state := "reading"
			if r.Done {
				state = "done"
			}
			fmt.Fprintf(w, "%-7d %-22s %14s %14s %10s\n",
				r.ID, queueBar(int(r.BytesRead>>10), int(r.SegmentSize>>10)),
				fmt.Sprintf("%d/%d KiB", r.BytesRead>>10, r.SegmentSize>>10),
				fmt.Sprintf("%.1f MB/s", r.MBPerSec), state)
		}
	}

	if len(st.Stages) > 0 {
		fmt.Fprintf(w, "\n%-10s %-10s %10s %10s %10s\n", "LANE", "STAGE", "SPANS", "P50", "P99")
		for _, sg := range st.Stages {
			fmt.Fprintf(w, "%-10s %-10s %10d %10s %10s\n",
				sg.Lane, sg.Stage, sg.Count, fmtLatency(sg.P50), fmtLatency(sg.P99))
		}
	}
}

// queueBar renders occupancy as "[####......] 4/10".
func queueBar(n, capacity int) string {
	const width = 10
	fill := 0
	if capacity > 0 {
		fill = width * n / capacity
		if fill > width {
			fill = width
		}
	}
	return fmt.Sprintf("[%s%s] %d/%d",
		strings.Repeat("#", fill), strings.Repeat(".", width-fill), n, capacity)
}

// causeString renders an attribution map as "feed:3 decode:1".
func causeString(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

func fmtLatency(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	}
	return fmt.Sprintf("%.3fs", s)
}

// age renders how long before the poll at t happened, "never" for nil.
func age(at time.Time, t *time.Time) string {
	if t == nil {
		return "never"
	}
	return fmtUptime(at.Sub(*t).Seconds()) + " ago"
}

func fmtUptime(s float64) string {
	d := time.Duration(s * float64(time.Second))
	if d >= time.Minute {
		return d.Round(time.Second).String()
	}
	return d.Round(100 * time.Millisecond).String()
}
