package stream

import (
	"strconv"
	"time"

	"uncharted/internal/obs"
)

// Metric names exported by the engine. Drop, depth and backpressure
// series carry a "shard" label so per-shard overload is visible
// instead of one aggregate; attribution series add a "cause" label
// naming the stage the blocked shard was in.
const (
	MetricPackets        = "uncharted_stream_packets_total"
	MetricBatches        = "uncharted_stream_batches_total"
	MetricDroppedBatches = "uncharted_stream_dropped_batches_total"
	MetricDroppedPackets = "uncharted_stream_dropped_packets_total"
	MetricSnapshots      = "uncharted_stream_snapshots_total"
	MetricWorkers        = "uncharted_stream_workers"
	MetricQueueDepth     = "uncharted_stream_queue_depth"
	MetricStalls         = "uncharted_stream_backpressure_stalls_total"
	MetricStallSeconds   = "uncharted_stream_stall_seconds"
	MetricDropCause      = "uncharted_stream_backpressure_drops_total"
	MetricReaders        = "uncharted_stream_readers"
	MetricReaderBytes    = "uncharted_stream_reader_bytes_total"
)

// stallCauses is the attribution vocabulary: the stage a shard can be
// observed in when its queue backs up onto the reader, plus "order" —
// the shard is fine but still draining an earlier segment's queue, so
// the blocked reader is simply ahead of the in-order fan-in.
var stallCauses = []string{"idle", "decode", "feed", "order"}

// shardMetrics pre-resolves one shard's labeled series.
type shardMetrics struct {
	dropB    *obs.Counter
	dropP    *obs.Counter
	depth    *obs.Gauge
	stallSec *obs.Histogram
	stalls   map[string]*obs.Counter
	dropBy   map[string]*obs.Counter
}

// engineMetrics books the engine's counters; a nil receiver (no
// registry configured) is a no-op, mirroring the other packages.
type engineMetrics struct {
	reg         *obs.Registry
	packets     *obs.Counter
	batches     *obs.Counter
	snapshots   *obs.Counter
	shards      []shardMetrics
	readers     *obs.Gauge
	readerBytes []*obs.Counter // sized by noteReaders
}

func newEngineMetrics(reg *obs.Registry, workers int) *engineMetrics {
	if reg == nil {
		return nil
	}
	reg.SetHelp(MetricPackets, "Packets dispatched to analysis shards.")
	reg.SetHelp(MetricBatches, "Batches dispatched to analysis shards.")
	reg.SetHelp(MetricDroppedBatches, "Batches shed under the drop policy, by shard.")
	reg.SetHelp(MetricDroppedPackets, "Packets shed under the drop policy, by shard.")
	reg.SetHelp(MetricSnapshots, "Rolling profiles published: one per content change (a shard consumed a record or the engine shed one since the last), not one per snapshot tick.")
	reg.SetHelp(MetricWorkers, "Configured analysis shard count.")
	reg.SetHelp(MetricQueueDepth, "Shard queue depth observed at the latest enqueue.")
	reg.SetHelp(MetricStalls, "Reader stalls under the Block policy, by shard and the stage that caused them.")
	reg.SetHelp(MetricStallSeconds, "Time the reader spent blocked on a full shard queue.")
	reg.SetHelp(MetricDropCause, "DropNewest losses by shard and the stage that caused them.")
	reg.SetHelp(MetricReaders, "Reader goroutines in the current run.")
	reg.SetHelp(MetricReaderBytes, "Capture bytes consumed, by reader.")
	m := &engineMetrics{
		reg:       reg,
		packets:   reg.Counter(MetricPackets),
		batches:   reg.Counter(MetricBatches),
		snapshots: reg.Counter(MetricSnapshots),
	}
	for i := 0; i < workers; i++ {
		shard := strconv.Itoa(i)
		sm := shardMetrics{
			dropB:    reg.Counter(MetricDroppedBatches, "shard", shard),
			dropP:    reg.Counter(MetricDroppedPackets, "shard", shard),
			depth:    reg.Gauge(MetricQueueDepth, "shard", shard),
			stallSec: reg.Histogram(MetricStallSeconds, obs.DurationBuckets, "shard", shard),
			stalls:   make(map[string]*obs.Counter, len(stallCauses)),
			dropBy:   make(map[string]*obs.Counter, len(stallCauses)),
		}
		for _, cause := range stallCauses {
			sm.stalls[cause] = reg.Counter(MetricStalls, "shard", shard, "cause", cause)
			sm.dropBy[cause] = reg.Counter(MetricDropCause, "shard", shard, "cause", cause)
		}
		m.shards = append(m.shards, sm)
	}
	reg.Gauge(MetricWorkers).Set(float64(workers))
	m.readers = reg.Gauge(MetricReaders)
	return m
}

// noteReaders records the run's reader count and pre-resolves one
// byte counter per reader. Called once, before the reader goroutines
// start.
func (m *engineMetrics) noteReaders(n int) {
	if m == nil {
		return
	}
	m.readers.Set(float64(n))
	for r := len(m.readerBytes); r < n; r++ {
		m.readerBytes = append(m.readerBytes, m.reg.Counter(MetricReaderBytes, "reader", strconv.Itoa(r)))
	}
}

// noteReaderBytes advances reader r's byte counter by n capture bytes.
func (m *engineMetrics) noteReaderBytes(r, n int) {
	if m == nil || r >= len(m.readerBytes) {
		return
	}
	m.readerBytes[r].Add(int64(n))
}

func (m *engineMetrics) noteBatch(packets int) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.packets.Add(int64(packets))
}

func (m *engineMetrics) noteDepth(shard, depth int) {
	if m == nil || shard >= len(m.shards) {
		return
	}
	m.shards[shard].depth.Set(float64(depth))
}

func (m *engineMetrics) noteDropped(shard, packets int, cause string) {
	if m == nil || shard >= len(m.shards) {
		return
	}
	sm := &m.shards[shard]
	sm.dropB.Inc()
	sm.dropP.Add(int64(packets))
	if c := sm.dropBy[cause]; c != nil {
		c.Inc()
	}
}

func (m *engineMetrics) noteStall(shard int, cause string, d time.Duration) {
	if m == nil || shard >= len(m.shards) {
		return
	}
	sm := &m.shards[shard]
	if c := sm.stalls[cause]; c != nil {
		c.Inc()
	}
	sm.stallSec.Observe(d.Seconds())
}

func (m *engineMetrics) noteSnapshot() {
	if m == nil {
		return
	}
	m.snapshots.Inc()
}

// dropped returns the total shed batch/packet counts for the profile,
// summed across shards.
func (m *engineMetrics) dropped() (batches, packets int64) {
	if m == nil {
		return 0, 0
	}
	for i := range m.shards {
		batches += m.shards[i].dropB.Value()
		packets += m.shards[i].dropP.Value()
	}
	return batches, packets
}
