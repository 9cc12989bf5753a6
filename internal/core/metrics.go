package core

import (
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
	"uncharted/internal/protocol"
	"uncharted/internal/tcpflow"
)

// Metric names exported by an instrumented Analyzer.
const (
	MetricPackets         = "uncharted_analyzer_packets_total"
	MetricFrames          = "uncharted_analyzer_frames_total"
	MetricParseErrors     = "uncharted_analyzer_parse_errors_total"
	MetricStrictInvalid   = "uncharted_analyzer_strict_invalid_total"
	MetricResyncs         = "uncharted_analyzer_resyncs_total"
	MetricResyncBytes     = "uncharted_analyzer_resync_bytes_total"
	MetricSeqAnomalies    = "uncharted_analyzer_seq_anomalies_total"
	MetricComplianceFlips = "uncharted_analyzer_compliance_flips_total"
	MetricDecodeErrors    = "uncharted_analyzer_decode_errors_total"
)

// analyzerMetrics holds the analyzer's private tallies of the series
// every analyzer on the registry shares (flush publishes them), plus
// the registry the labeled tallies resolve through on a label's first
// use.
type analyzerMetrics struct {
	reg *obs.Registry

	packetsIEC   obs.Tally
	packetsOther obs.Tally
	framesI      obs.Tally
	framesS      obs.Tally
	framesU      obs.Tally
	resyncs      obs.Tally
	resyncBytes  obs.Tally
	seqAnomalies obs.Tally
	flips        obs.Tally
	decodeErrors obs.Tally

	// strictBy and causeBy hold the per-dialect strict-invalid and the
	// per-cause parse-error tallies. The analyzer runs single-goroutine,
	// so plain maps suffice.
	strictBy map[string]*obs.Tally
	causeBy  map[string]*obs.Tally
}

func newAnalyzerMetrics(reg *obs.Registry) *analyzerMetrics {
	reg.SetHelp(MetricPackets, "TCP packets fed to the analyzer, split by whether they touch the IEC 104 port.")
	reg.SetHelp(MetricFrames, "Frames a dialect session accepted, by class: i data, s acknowledgement, u control (for IEC 104 the APCI format).")
	reg.SetHelp(MetricParseErrors, "Frames a dialect session could not decode, by cause.")
	reg.SetHelp(MetricStrictInvalid, "I-frames a strict standard-profile parser rejects, by the dialect that rescued them.")
	reg.SetHelp(MetricResyncs, "Times a framer skipped garbage to find a frame start (0x68 in IEC 104).")
	reg.SetHelp(MetricResyncBytes, "Bytes discarded while resynchronising on a frame start.")
	reg.SetHelp(MetricSeqAnomalies, "Data units (IEC 104 I-frames) whose sequence number broke the per-direction continuity.")
	reg.SetHelp(MetricComplianceFlips, "Stations whose detected dialect settled on (or moved to) a new profile.")
	reg.SetHelp(MetricDecodeErrors, "Capture records that failed Ethernet/IP/TCP decoding.")
	// Pre-register the IEC 104 session's causes at zero so the
	// malformed-frame breakdown is visible (and rate()-able) before the
	// first error.
	for _, cause := range iec104.Causes() {
		reg.Counter(MetricParseErrors, "cause", cause)
	}
	return &analyzerMetrics{
		reg:          reg,
		packetsIEC:   reg.Counter(MetricPackets, "proto", "iec104").Tally(),
		packetsOther: reg.Counter(MetricPackets, "proto", "other").Tally(),
		framesI:      reg.Counter(MetricFrames, "format", "i").Tally(),
		framesS:      reg.Counter(MetricFrames, "format", "s").Tally(),
		framesU:      reg.Counter(MetricFrames, "format", "u").Tally(),
		resyncs:      reg.Counter(MetricResyncs).Tally(),
		resyncBytes:  reg.Counter(MetricResyncBytes).Tally(),
		seqAnomalies: reg.Counter(MetricSeqAnomalies).Tally(),
		flips:        reg.Counter(MetricComplianceFlips).Tally(),
		decodeErrors: reg.Counter(MetricDecodeErrors).Tally(),
		strictBy:     make(map[string]*obs.Tally),
		causeBy:      make(map[string]*obs.Tally),
	}
}

// flush publishes the tallies. Nil-safe.
func (m *analyzerMetrics) flush() {
	if m == nil {
		return
	}
	m.packetsIEC.Flush()
	m.packetsOther.Flush()
	m.framesI.Flush()
	m.framesS.Flush()
	m.framesU.Flush()
	m.resyncs.Flush()
	m.resyncBytes.Flush()
	m.seqAnomalies.Flush()
	m.flips.Flush()
	m.decodeErrors.Flush()
	for _, t := range m.strictBy {
		t.Flush()
	}
	for _, t := range m.causeBy {
		t.Flush()
	}
}

// notePacket books one fed packet. Nil-safe.
func (m *analyzerMetrics) notePacket(iec bool) {
	if m == nil {
		return
	}
	if iec {
		m.packetsIEC.Inc()
	} else {
		m.packetsOther.Inc()
	}
}

// noteFrame books one accepted frame by its token's class: data,
// acknowledgement or control, for IEC 104 exactly the APDU format.
// Nil-safe.
func (m *analyzerMetrics) noteFrame(tok protocol.Token) {
	if m == nil {
		return
	}
	switch tok.Class() {
	case protocol.ClassAck:
		m.framesS.Inc()
	case protocol.ClassControl:
		m.framesU.Inc()
	default:
		m.framesI.Inc()
	}
}

// noteResync books skipped garbage bytes. Nil-safe.
func (m *analyzerMetrics) noteResync(skipped int) {
	if m == nil || skipped == 0 {
		return
	}
	m.resyncs.Inc()
	m.resyncBytes.Add(int64(skipped))
}

// noteSeqAnomaly books a broken N(S) continuity. Nil-safe.
func (m *analyzerMetrics) noteSeqAnomaly() {
	if m != nil {
		m.seqAnomalies.Inc()
	}
}

// noteFlip books a station settling on a new dialect. Nil-safe.
func (m *analyzerMetrics) noteFlip() {
	if m != nil {
		m.flips.Inc()
	}
}

// noteDecodeErrors books n undecodable capture records. Nil-safe.
func (m *analyzerMetrics) noteDecodeErrors(n int) {
	if m != nil && n > 0 {
		m.decodeErrors.Add(int64(n))
	}
}

// noteParseError books a rejected frame under its cause label.
// Nil-safe.
func (m *analyzerMetrics) noteParseError(cause string) {
	if m != nil {
		m.labeled(m.causeBy, MetricParseErrors, "cause", cause).Inc()
	}
}

// noteStrictInvalid books a strict-parser rejection under the dialect
// the tolerant parser used. Nil-safe.
func (m *analyzerMetrics) noteStrictInvalid(dialect string) {
	if m != nil {
		m.labeled(m.strictBy, MetricStrictInvalid, "dialect", dialect).Inc()
	}
}

// labeled returns the tally of series name{key="value"} kept in by,
// resolving it through the registry on the label's first use.
func (m *analyzerMetrics) labeled(by map[string]*obs.Tally, name, key, value string) *obs.Tally {
	t := by[value]
	if t == nil {
		tally := m.reg.Counter(name, key, value).Tally()
		t = &tally
		by[value] = t
	}
	return t
}

// connLabel renders a flow direction for journal events.
func connLabel(sp *tcpflow.StreamPayload) string {
	return sp.Src.String() + ">" + sp.Dst.String()
}

// journalEvent emits an event when a journal is attached. Nil-safe via
// Journal.Log.
func (a *Analyzer) journalEvent(ts time.Time, typ obs.EventType, conn string, attrs map[string]any) {
	a.journal.Log(ts, typ, conn, attrs)
}
