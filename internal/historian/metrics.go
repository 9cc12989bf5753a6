package historian

import "uncharted/internal/obs"

// Metric names exported by the historian.
const (
	MetricAppends     = "uncharted_historian_appends_total"
	MetricBlocks      = "uncharted_historian_blocks_total"
	MetricBytes       = "uncharted_historian_bytes_written_total"
	MetricRawBytes    = "uncharted_historian_raw_bytes_total"
	MetricRatio       = "uncharted_historian_compression_ratio"
	MetricFsyncs      = "uncharted_historian_fsyncs_total"
	MetricSegments    = "uncharted_historian_segments"
	MetricCompactions = "uncharted_historian_compactions_total"
	MetricTornBytes   = "uncharted_historian_torn_bytes_total"
	MetricDropped     = "uncharted_historian_dropped_samples_total"
	MetricJournal     = "uncharted_historian_journal_bytes"
)

// rawSampleBytes is the uncompressed footprint of one sample
// (8-byte timestamp + 8-byte float), the denominator of the
// compression ratio.
const rawSampleBytes = 16

// storeMetrics books the historian's counters; a nil receiver (no
// registry configured) is a no-op, mirroring the other packages.
type storeMetrics struct {
	appends  *obs.Counter
	blocks   *obs.Counter
	bytes    *obs.Counter
	raw      *obs.Counter
	ratio    *obs.Gauge
	fsyncs   *obs.Counter
	segments *obs.Gauge
	compact  map[string]*obs.Counter
	torn     *obs.Counter
	dropped  *obs.Counter
	journal  *obs.Gauge
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		return nil
	}
	reg.SetHelp(MetricAppends, "Samples appended to the historian.")
	reg.SetHelp(MetricBlocks, "Compressed blocks flushed to segments.")
	reg.SetHelp(MetricBytes, "Record bytes written to segment files.")
	reg.SetHelp(MetricRawBytes, "Uncompressed equivalent (16 B/sample) of flushed samples.")
	reg.SetHelp(MetricRatio, "Raw-to-record compression ratio of flushed data.")
	reg.SetHelp(MetricFsyncs, "Fsyncs of the active segment (batched, and before each Sync journal frame) and of the Sync journal.")
	reg.SetHelp(MetricSegments, "Segment files currently open (sealed + active).")
	reg.SetHelp(MetricCompactions, "Compaction actions by kind (drop, downsample).")
	reg.SetHelp(MetricTornBytes, "Torn tail bytes of segments and the Sync journal discarded during crash recovery.")
	reg.SetHelp(MetricDropped, "Recorded samples skipped because their time lies outside 1678-2262.")
	reg.SetHelp(MetricJournal, "Bytes in the Sync journal: what Syncs made durable since the buffers were last all flushed to blocks.")
	return &storeMetrics{
		appends:  reg.Counter(MetricAppends),
		blocks:   reg.Counter(MetricBlocks),
		bytes:    reg.Counter(MetricBytes),
		raw:      reg.Counter(MetricRawBytes),
		ratio:    reg.Gauge(MetricRatio),
		fsyncs:   reg.Counter(MetricFsyncs),
		segments: reg.Gauge(MetricSegments),
		compact: map[string]*obs.Counter{
			"drop":       reg.Counter(MetricCompactions, "kind", "drop"),
			"downsample": reg.Counter(MetricCompactions, "kind", "downsample"),
		},
		torn:    reg.Counter(MetricTornBytes),
		dropped: reg.Counter(MetricDropped),
		journal: reg.Gauge(MetricJournal),
	}
}

func (m *storeMetrics) noteAppends(n int) {
	if m == nil {
		return
	}
	m.appends.Add(int64(n))
}

func (m *storeMetrics) noteBlock(samples, payloadBytes, recordBytes int) {
	if m == nil {
		return
	}
	m.blocks.Inc()
	m.bytes.Add(int64(recordBytes))
	m.raw.Add(int64(samples) * rawSampleBytes)
	if w := m.bytes.Value(); w > 0 {
		m.ratio.Set(float64(m.raw.Value()) / float64(w))
	}
}

func (m *storeMetrics) noteFsync() {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
}

func (m *storeMetrics) noteSegments(n int) {
	if m == nil {
		return
	}
	m.segments.Set(float64(n))
}

func (m *storeMetrics) noteCompaction(kind string) {
	if m == nil {
		return
	}
	if c, ok := m.compact[kind]; ok {
		c.Inc()
	}
}

func (m *storeMetrics) noteTorn(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.torn.Add(n)
}

func (m *storeMetrics) noteDropped(n int) {
	if m == nil || n == 0 {
		return
	}
	m.dropped.Add(int64(n))
}

func (m *storeMetrics) noteJournal(size int64) {
	if m == nil {
		return
	}
	m.journal.Set(float64(size))
}
