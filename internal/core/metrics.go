package core

import (
	"errors"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/obs"
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
// the registry for the rare labeled path (parse-error causes) that
// resolves lazily and counts directly.
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

	// strictBy holds the per-dialect strict-invalid tallies. The
	// analyzer runs single-goroutine, so a plain map suffices.
	strictBy map[string]*obs.Tally
}

func newAnalyzerMetrics(reg *obs.Registry) *analyzerMetrics {
	reg.SetHelp(MetricPackets, "TCP packets fed to the analyzer, split by whether they touch the IEC 104 port.")
	reg.SetHelp(MetricFrames, "APDUs the tolerant parser accepted, by APCI format.")
	reg.SetHelp(MetricParseErrors, "Frames no candidate dialect could decode, by cause.")
	reg.SetHelp(MetricStrictInvalid, "I-frames a strict standard-profile parser rejects, by the dialect that rescued them.")
	reg.SetHelp(MetricResyncs, "Times the framer skipped garbage to find a 0x68 start byte.")
	reg.SetHelp(MetricResyncBytes, "Bytes discarded while resynchronising on 0x68.")
	reg.SetHelp(MetricSeqAnomalies, "I-frames whose N(S) broke the per-direction sequence continuity.")
	reg.SetHelp(MetricComplianceFlips, "Stations whose detected dialect settled on (or moved to) a new profile.")
	reg.SetHelp(MetricDecodeErrors, "Capture records that failed Ethernet/IP/TCP decoding.")
	// Pre-register the known causes at zero so the malformed-frame
	// breakdown is visible (and rate()-able) before the first error.
	for _, cause := range []string{
		"no_profile", "short_frame", "bad_start_byte", "bad_length", "bad_control",
		"short_asdu", "unsupported_type", "object_count", "no_objects", "trailing_bytes",
	} {
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

// noteFrame books one accepted APDU by format. Nil-safe.
func (m *analyzerMetrics) noteFrame(format iec104.Format) {
	if m == nil {
		return
	}
	switch format {
	case iec104.FormatI:
		m.framesI.Inc()
	case iec104.FormatS:
		m.framesS.Inc()
	case iec104.FormatU:
		m.framesU.Inc()
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

// noteParseError books a rejected frame under its cause label. Parse
// errors are rare, so the labeled series resolves through the registry
// rather than a pre-allocated handle. Nil-safe.
func (m *analyzerMetrics) noteParseError(cause string) {
	if m != nil {
		m.reg.Counter(MetricParseErrors, "cause", cause).Inc()
	}
}

// noteStrictInvalid books a strict-parser rejection under the dialect
// the tolerant parser used. Nil-safe.
func (m *analyzerMetrics) noteStrictInvalid(dialect string) {
	if m == nil {
		return
	}
	t := m.strictBy[dialect]
	if t == nil {
		tally := m.reg.Counter(MetricStrictInvalid, "dialect", dialect).Tally()
		t = &tally
		m.strictBy[dialect] = t
	}
	t.Inc()
}

// parseErrorCause maps a tolerant-parser failure to a stable label for
// the malformed-frame breakdown.
func parseErrorCause(err error) string {
	switch {
	case errors.Is(err, iec104.ErrNoProfile):
		return "no_profile"
	case errors.Is(err, iec104.ErrShortFrame):
		return "short_frame"
	case errors.Is(err, iec104.ErrBadStartByte):
		return "bad_start_byte"
	case errors.Is(err, iec104.ErrBadLength):
		return "bad_length"
	case errors.Is(err, iec104.ErrBadControl):
		return "bad_control"
	case errors.Is(err, iec104.ErrShortASDU):
		return "short_asdu"
	case errors.Is(err, iec104.ErrUnsupportedType):
		return "unsupported_type"
	case errors.Is(err, iec104.ErrObjectCount):
		return "object_count"
	case errors.Is(err, iec104.ErrNoObjects):
		return "no_objects"
	case errors.Is(err, iec104.ErrTrailing):
		return "trailing_bytes"
	case err == nil:
		return "empty_parse"
	}
	return "other"
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
