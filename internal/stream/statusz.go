package stream

import (
	"fmt"
	"html"
	"io"
	"sort"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
)

// StageStatus is one (stage, lane) row of the live pipeline topology:
// sampled-span latency quantiles from the flight recorder histograms.
type StageStatus struct {
	Stage string  `json:"stage"`
	Lane  string  `json:"lane"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// ReaderStatus is one reader's live progress: the byte range it owns
// (zero for a source that is not a planned capture segment), how far
// it has read, and its observed rate. Every run has at least one.
type ReaderStatus struct {
	ID          int     `json:"id"`
	SegmentOff  int64   `json:"segment_off"`
	SegmentSize int64   `json:"segment_size"`
	BytesRead   int64   `json:"bytes_read"`
	MBPerSec    float64 `json:"mb_per_sec"`
	Done        bool    `json:"done"`
}

// ShardStatus is one shard's live health: queue occupancy (summed over
// its per-reader queues), the stage it is in right now, and its
// drop/stall attribution.
type ShardStatus struct {
	ID             int              `json:"id"`
	QueueLen       int              `json:"queue_len"`
	QueueCap       int              `json:"queue_cap"`
	Current        string           `json:"current_stage"`
	DroppedBatches int64            `json:"dropped_batches"`
	DroppedPackets int64            `json:"dropped_packets"`
	Stalls         map[string]int64 `json:"stalls_by_cause,omitempty"`
	DropCauses     map[string]int64 `json:"drops_by_cause,omitempty"`
}

// Status is the engine's /statusz document. LastTick is when a
// snapshot tick last checked the shards for new content, LastPublish
// when a check (or the end of the run) last published some: on an idle
// feed the first moves and the second does not. Each is absent before
// the first of its kind.
type Status struct {
	State          string         `json:"state"`
	UptimeSeconds  float64        `json:"uptime_seconds"`
	Workers        int            `json:"workers"`
	BatchSize      int            `json:"batch_size"`
	QueueDepth     int            `json:"queue_depth"`
	Policy         string         `json:"policy"`
	Packets        int64          `json:"packets"`
	Batches        int64          `json:"batches"`
	Snapshots      int64          `json:"snapshots"`
	LastTick       *time.Time     `json:"last_tick,omitempty"`
	LastPublish    *time.Time     `json:"last_publish,omitempty"`
	DroppedBatches int64          `json:"dropped_batches"`
	DroppedPackets int64          `json:"dropped_packets"`
	Readers        []ReaderStatus `json:"readers,omitempty"` // empty only before Run
	Stages         []StageStatus  `json:"stages,omitempty"`
	Shards         []ShardStatus  `json:"shards"`
}

func (p DropPolicy) String() string {
	if p == DropNewest {
		return "drop-newest"
	}
	return "block"
}

func stateName(s int32) string {
	switch s {
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	case stateDone:
		return "done"
	}
	return "idle"
}

// Status assembles the live pipeline view: engine state, per-shard
// queue occupancy and attribution, and — when the engine is traced —
// per-stage latency quantiles estimated from its flight recorder's
// sampled histograms. The recorder hands those over itself
// (trace.Recorder.EachStage), so the stage rows show whichever
// registry, or label view of one, the engine books its own metrics on,
// and a /statusz poll never walks a registry: with tracing off it
// reads no histogram at all.
func (e *Engine) Status() Status {
	st := Status{
		State:      stateName(e.state.Load()),
		Workers:    e.cfg.Workers,
		BatchSize:  e.batchSize,
		QueueDepth: e.cfg.QueueDepth,
		Policy:     e.cfg.Policy.String(),
	}
	if started := e.started.Load(); started != 0 {
		st.UptimeSeconds = time.Since(time.Unix(0, started)).Seconds()
	}
	st.LastTick, st.LastPublish = unixTime(e.lastTick.Load()), unixTime(e.lastPub.Load())
	if m := e.metrics; m != nil {
		st.Packets = m.packets.Value()
		st.Batches = m.batches.Value()
		st.Snapshots = m.snapshots.Value()
		st.DroppedBatches, st.DroppedPackets = m.dropped()
	}
	if rs := e.readers.Load(); rs != nil {
		for i, rst := range *rs {
			r := ReaderStatus{
				ID:          i,
				SegmentOff:  rst.info.Off,
				SegmentSize: rst.info.Size,
				BytesRead:   rst.bytes.Load(),
			}
			elapsed := time.Since(rst.start)
			if end := rst.endNs.Load(); end != 0 {
				r.Done = true
				elapsed = time.Unix(0, end).Sub(rst.start)
			}
			if s := elapsed.Seconds(); s > 0 {
				r.MBPerSec = float64(r.BytesRead) / (1 << 20) / s
			}
			st.Readers = append(st.Readers, r)
		}
	}
	for _, sh := range e.shards {
		qlen, qcap := 0, 0
		for _, q := range sh.queues() {
			qlen += len(q)
			qcap += cap(q)
		}
		ss := ShardStatus{
			ID:       sh.id,
			QueueLen: qlen,
			QueueCap: qcap,
			Current:  causeName(sh.cur.Load()),
		}
		if m := e.metrics; m != nil && sh.id < len(m.shards) {
			sm := &m.shards[sh.id]
			ss.DroppedBatches = sm.dropB.Value()
			ss.DroppedPackets = sm.dropP.Value()
			ss.Stalls = nonZero(sm.stalls)
			ss.DropCauses = nonZero(sm.dropBy)
		}
		st.Shards = append(st.Shards, ss)
	}
	e.cfg.Trace.EachStage(func(lane string, stage trace.Stage, h *obs.Histogram) {
		hs := h.Snapshot()
		if hs.Count == 0 {
			return
		}
		st.Stages = append(st.Stages, StageStatus{
			Stage: stage.String(),
			Lane:  lane,
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P99:   hs.Quantile(0.99),
		})
	})
	sort.Slice(st.Stages, func(i, j int) bool {
		if st.Stages[i].Lane != st.Stages[j].Lane {
			return st.Stages[i].Lane < st.Stages[j].Lane
		}
		return st.Stages[i].Stage < st.Stages[j].Stage
	})
	return st
}

// unixTime is the time of unix nanos ns, or nil for 0 (never).
func unixTime(ns int64) *time.Time {
	if ns == 0 {
		return nil
	}
	t := time.Unix(0, ns)
	return &t
}

// nonZero returns the counters that have fired, by cause; nil if none.
func nonZero(byCause map[string]*obs.Counter) map[string]int64 {
	var out map[string]int64
	for cause, c := range byCause {
		if v := c.Value(); v > 0 {
			if out == nil {
				out = make(map[string]int64)
			}
			out[cause] = v
		}
	}
	return out
}

// WriteJSON renders the status document, indented.
func (st Status) WriteJSON(w io.Writer) error {
	return obs.WriteIndentedJSON(w, st)
}

// WriteText renders the status document as a terminal-friendly
// summary: one header line, one line per shard, one per sampled stage.
func (st Status) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "state %s  uptime %.1fs  policy %s  workers %d  batch %d  queue %d\n",
		st.State, st.UptimeSeconds, st.Policy, st.Workers, st.BatchSize, st.QueueDepth)
	fmt.Fprintf(w, "packets %d  batches %d  snapshots %d  dropped %d batches / %d packets\n",
		st.Packets, st.Batches, st.Snapshots, st.DroppedBatches, st.DroppedPackets)
	fmt.Fprintf(w, "last checked %s  last changed %s\n", fmtStamp(st.LastTick), fmtStamp(st.LastPublish))
	for _, r := range st.Readers {
		fmt.Fprintf(w, "reader %d: segment @%d +%d  read %d  %.1f MB/s%s\n",
			r.ID, r.SegmentOff, r.SegmentSize, r.BytesRead, r.MBPerSec, doneSuffix(r.Done))
	}
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "shard %d: queue %d/%d  stage %s  dropped %d/%d  stalls %s  drops %s\n",
			sh.ID, sh.QueueLen, sh.QueueCap, sh.Current,
			sh.DroppedBatches, sh.DroppedPackets,
			causeMapString(sh.Stalls), causeMapString(sh.DropCauses))
	}
	for _, sg := range st.Stages {
		fmt.Fprintf(w, "stage %s/%s: spans %d  p50 %s  p99 %s\n",
			sg.Lane, sg.Stage, sg.Count, fmtSeconds(sg.P50), fmtSeconds(sg.P99))
	}
	return nil
}

func writeStatusHTML(w io.Writer, st Status) {
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta http-equiv="refresh" content="2"><title>uncharted /statusz</title>
<style>
body{font-family:monospace;margin:1.5em}
table{border-collapse:collapse;margin:0 0 1.5em}
td,th{border:1px solid #999;padding:2px 8px;text-align:right}
th{background:#eee}
td:first-child,th:first-child{text-align:left}
.bar{background:#cfc;height:0.8em;display:inline-block}
</style></head><body>
<h2>uncharted streaming pipeline</h2>
<p>state <b>%s</b> · uptime %.1fs · policy %s · %d workers · batch %d · queue %d</p>
<p>packets %d · batches %d · snapshots %d · dropped %d batches / %d packets</p>
<p>last checked %s · last changed %s</p>
`,
		html.EscapeString(st.State), st.UptimeSeconds, html.EscapeString(st.Policy),
		st.Workers, st.BatchSize, st.QueueDepth,
		st.Packets, st.Batches, st.Snapshots, st.DroppedBatches, st.DroppedPackets,
		fmtStamp(st.LastTick), fmtStamp(st.LastPublish))

	if len(st.Readers) > 0 {
		fmt.Fprint(w, "<h3>readers</h3><table><tr><th>reader</th><th>segment</th><th>read</th><th>MB/s</th><th>state</th></tr>\n")
		for _, r := range st.Readers {
			pct := 0
			if r.SegmentSize > 0 {
				pct = int(100 * r.BytesRead / r.SegmentSize)
			}
			state := "reading"
			if r.Done {
				state = "done"
			}
			fmt.Fprintf(w, `<tr><td>%d</td><td>@%d +%d</td><td>%d (%d%%) <span class="bar" style="width:%dpx"></span></td><td>%.1f</td><td>%s</td></tr>`+"\n",
				r.ID, r.SegmentOff, r.SegmentSize, r.BytesRead, pct, pct, r.MBPerSec, state)
		}
		fmt.Fprint(w, "</table>\n")
	}

	fmt.Fprint(w, "<h3>shards</h3><table><tr><th>shard</th><th>queue</th><th>stage</th><th>dropped batches</th><th>dropped packets</th><th>stalls (cause)</th><th>drops (cause)</th></tr>\n")
	for _, sh := range st.Shards {
		fill := 0
		if sh.QueueCap > 0 {
			fill = 100 * sh.QueueLen / sh.QueueCap
		}
		fmt.Fprintf(w, `<tr><td>%d</td><td>%d/%d <span class="bar" style="width:%dpx"></span></td><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>`+"\n",
			sh.ID, sh.QueueLen, sh.QueueCap, fill,
			html.EscapeString(sh.Current), sh.DroppedBatches, sh.DroppedPackets,
			html.EscapeString(causeMapString(sh.Stalls)), html.EscapeString(causeMapString(sh.DropCauses)))
	}
	fmt.Fprint(w, "</table>\n")

	if len(st.Stages) > 0 {
		fmt.Fprint(w, "<h3>stages (sampled)</h3><table><tr><th>lane</th><th>stage</th><th>spans</th><th>p50</th><th>p99</th></tr>\n")
		for _, sg := range st.Stages {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(sg.Lane), html.EscapeString(sg.Stage), sg.Count,
				fmtSeconds(sg.P50), fmtSeconds(sg.P99))
		}
		fmt.Fprint(w, "</table>\n")
	}
	fmt.Fprint(w, "</body></html>\n")
}

// causeMapString renders an attribution map as "feed:3 decode:1".
func causeMapString(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", k, m[k])
	}
	return out
}

func doneSuffix(done bool) string {
	if done {
		return "  done"
	}
	return ""
}

// fmtStamp renders a status timestamp with its age, "-" for never.
func fmtStamp(t *time.Time) string {
	if t == nil {
		return "-"
	}
	return fmt.Sprintf("%s (%s ago)", t.Format("15:04:05.000"), fmtSeconds(time.Since(*t).Seconds()))
}

func fmtSeconds(s float64) string {
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
