package tcpflow

import "uncharted/internal/obs"

// Metric names exported by an instrumented Tracker.
const (
	MetricFlowsOpened = "uncharted_tcpflow_flows_opened_total"
	MetricFlowsClosed = "uncharted_tcpflow_flows_closed_total"
	MetricOpenFlows   = "uncharted_tcpflow_open_flows"
	MetricSegments    = "uncharted_tcpflow_segments_total"
	MetricRetransmits = "uncharted_tcpflow_retransmit_segments_total"
	MetricOutOfOrder  = "uncharted_tcpflow_out_of_order_segments_total"
	MetricFlowsEvict  = "uncharted_tcpflow_flows_evicted_total"
)

// trackerMetrics holds one Tracker's private tallies of the series
// every tracker on the registry shares; flush publishes them.
type trackerMetrics struct {
	flowsOpened  obs.Tally
	flowsClosed  obs.Tally
	segments     obs.Tally
	retransmits  obs.Tally
	outOfOrder   obs.Tally
	flowsEvicted obs.Tally
	// openDelta is the unpublished change of the open-flow gauge.
	openFlows *obs.Gauge
	openDelta int
}

func newTrackerMetrics(reg *obs.Registry) *trackerMetrics {
	reg.SetHelp(MetricFlowsOpened, "TCP 4-tuples first seen by the flow tracker.")
	reg.SetHelp(MetricFlowsClosed, "Tracked flows that reached a FIN or RST.")
	reg.SetHelp(MetricOpenFlows, "Tracked flows not yet closed by FIN or RST.")
	reg.SetHelp(MetricSegments, "TCP segments fed to the flow tracker.")
	reg.SetHelp(MetricRetransmits, "Payload segments carrying only already-delivered bytes.")
	reg.SetHelp(MetricOutOfOrder, "Payload segments buffered ahead of a sequence gap.")
	reg.SetHelp(MetricFlowsEvict, "Flows dropped by streaming-mode idle eviction.")
	return &trackerMetrics{
		flowsOpened:  reg.Counter(MetricFlowsOpened).Tally(),
		flowsClosed:  reg.Counter(MetricFlowsClosed).Tally(),
		openFlows:    reg.Gauge(MetricOpenFlows),
		segments:     reg.Counter(MetricSegments).Tally(),
		retransmits:  reg.Counter(MetricRetransmits).Tally(),
		outOfOrder:   reg.Counter(MetricOutOfOrder).Tally(),
		flowsEvicted: reg.Counter(MetricFlowsEvict).Tally(),
	}
}

// flush publishes the tallies. Nil-safe.
func (m *trackerMetrics) flush() {
	if m == nil {
		return
	}
	m.flowsOpened.Flush()
	m.flowsClosed.Flush()
	m.segments.Flush()
	m.retransmits.Flush()
	m.outOfOrder.Flush()
	m.flowsEvicted.Flush()
	if m.openDelta != 0 {
		m.openFlows.Add(float64(m.openDelta))
		m.openDelta = 0
	}
}

// noteFlowOpened books a newly tracked 4-tuple. Nil-safe.
func (m *trackerMetrics) noteFlowOpened() {
	if m != nil {
		m.flowsOpened.Inc()
		m.openDelta++
	}
}

// noteFlowClosed books the first FIN/RST seen on a flow. Nil-safe.
func (m *trackerMetrics) noteFlowClosed() {
	if m != nil {
		m.flowsClosed.Inc()
		m.openDelta--
	}
}

// noteFlowEvicted books an idle-evicted flow; flows never closed by
// FIN/RST leave the open-flow gauge too. Nil-safe.
func (m *trackerMetrics) noteFlowEvicted(wasClosed bool) {
	if m == nil {
		return
	}
	m.flowsEvicted.Inc()
	if !wasClosed {
		m.openDelta--
	}
}

// noteSegment books one fed segment and its reassembly outcome. Nil-safe.
func (m *trackerMetrics) noteSegment(retrans, buffered bool) {
	if m == nil {
		return
	}
	m.segments.Inc()
	if retrans {
		m.retransmits.Inc()
	}
	if buffered {
		m.outOfOrder.Inc()
	}
}
