package main

import (
	"strings"
	"testing"
	"time"
)

func mkSample(at time.Time, packets int64) *sample {
	s := &sample{At: at, Addr: "localhost:9104"}
	tick, published := at.Add(-100*time.Millisecond), at.Add(-90*time.Second)
	s.Status = statusDoc{
		State: "running", UptimeSeconds: 42.5, Workers: 2, Policy: "block",
		Packets: packets, Batches: packets / 100, Snapshots: 7,
		LastTick: &tick, LastPublish: &published,
		DroppedBatches: 1, DroppedPackets: 64,
		Shards: []shardRow{
			{ID: 0, QueueLen: 4, QueueCap: 8, Current: "feed",
				Stalls: map[string]int64{"feed": 3, "decode": 1}},
			{ID: 1, QueueLen: 0, QueueCap: 8, Current: "idle",
				DroppedBatches: 1, DroppedPackets: 64,
				DropCauses: map[string]int64{"idle": 1}},
		},
		Stages: []stageRow{
			{Lane: "0", Stage: "decode", Count: 1200, P50: 12e-6, P99: 85e-6},
			{Lane: "reader", Stage: "read", Count: 4800, P50: 2e-6, P99: 9e-6},
		},
		Readers: []readerRow{
			{ID: 0, SegmentOff: 0, SegmentSize: 2 << 20, BytesRead: 2 << 20, MBPerSec: 120.5, Done: true},
			{ID: 1, SegmentOff: 2 << 20, SegmentSize: 2 << 20, BytesRead: 1 << 20, MBPerSec: 98.2},
		},
	}
	s.Vars.Journal = map[string]int64{"alert": 3, "drift": 1, "span": 900}
	s.Vars.JournalDropped = 2
	return s
}

// TestRenderFirstFrame: with no previous sample the frame still draws
// every section, with rates shown as "-".
func TestRenderFirstFrame(t *testing.T) {
	var b strings.Builder
	render(&b, nil, mkSample(time.Unix(100, 0), 10000))
	out := b.String()
	for _, want := range []string{
		"state running", "policy block", "2 workers",
		"packets 10000 (-)", "snapshots 7 (changed 1m30s ago, checked 100ms ago)",
		"alerts 3", "drift 1", "journal drops 2",
		"SHARD", "[#####.....] 4/8", "feed",
		"decode:1 feed:3", "idle:1",
		"LANE", "decode", "12.0µs", "85.0µs",
		"READER", "2048/2048 KiB", "120.5 MB/s", "done",
		"1024/2048 KiB", "98.2 MB/s", "reading",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

// TestRenderRates: the second frame turns counter deltas into
// per-second rates over the poll gap.
func TestRenderRates(t *testing.T) {
	prev := mkSample(time.Unix(100, 0), 10000)
	cur := mkSample(time.Unix(102, 0), 13000) // +3000 packets over 2s
	var b strings.Builder
	render(&b, prev, cur)
	out := b.String()
	if !strings.Contains(out, "packets 13000 (1500/s)") {
		t.Errorf("frame missing packet rate:\n%s", out)
	}
	if !strings.Contains(out, "dropped 1 batches / 64 packets (0/s)") {
		t.Errorf("frame missing drop rate:\n%s", out)
	}
}

// TestQueueBar: occupancy clamps and scales.
func TestQueueBar(t *testing.T) {
	for _, tc := range []struct {
		n, cap int
		want   string
	}{
		{0, 8, "[..........] 0/8"},
		{8, 8, "[##########] 8/8"},
		{3, 0, "[..........] 3/0"},
	} {
		if got := queueBar(tc.n, tc.cap); got != tc.want {
			t.Errorf("queueBar(%d,%d) = %q, want %q", tc.n, tc.cap, got, tc.want)
		}
	}
}
