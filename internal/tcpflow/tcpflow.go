// Package tcpflow tracks TCP flows in a capture: lifecycle flags,
// durations, the short-/long-lived classification of the paper (§6.2),
// per-direction byte and packet accounting, retransmission detection
// and in-order stream reassembly that feeds reassembled payload to an
// application-layer consumer.
package tcpflow

import (
	"net/netip"
	"sort"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/pcap"
)

// Key is the 4-tuple identifying one flow direction-insensitively: the
// lexicographically smaller endpoint is stored first so both directions
// map to the same flow.
type Key struct {
	A, B netip.AddrPort
}

// MakeKey canonicalises the endpoint pair.
func MakeKey(src, dst netip.AddrPort) Key {
	if addrPortLess(src, dst) {
		return Key{A: src, B: dst}
	}
	return Key{A: dst, B: src}
}

func addrPortLess(x, y netip.AddrPort) bool {
	if c := x.Addr().Compare(y.Addr()); c != 0 {
		return c < 0
	}
	return x.Port() < y.Port()
}

// Class is the paper's flow taxonomy.
type Class int

// Flow classes. A flow is short-lived when the capture contains its
// complete lifecycle: a SYN and a matching FIN or RST. Flows that
// started before the capture or were still open when it ended are
// long-lived.
const (
	ShortLived Class = iota
	LongLived
)

func (c Class) String() string {
	if c == ShortLived {
		return "short-lived"
	}
	return "long-lived"
}

// DirStats accounts one direction of a flow.
type DirStats struct {
	Packets      int
	Bytes        int // IP payload bytes (TCP header + payload)
	PayloadBytes int // application payload bytes
	Retransmits  int
}

// Flow is the accumulated state of one 4-tuple.
type Flow struct {
	Key        Key
	First      time.Time
	Last       time.Time
	SawSYN     bool
	SawFIN     bool
	SawRST     bool
	Initiator  netip.AddrPort // sender of the first SYN, if seen
	AtoB, BtoA DirStats

	streams     [2]*stream
	closeCounts bool // flow already booked as closed in the metrics
}

// Duration is the observed flow lifetime within the capture.
func (f *Flow) Duration() time.Duration { return f.Last.Sub(f.First) }

// Class applies the paper's definition.
func (f *Flow) Class() Class {
	if f.SawSYN && (f.SawFIN || f.SawRST) {
		return ShortLived
	}
	return LongLived
}

// Packets returns the total packet count over both directions.
func (f *Flow) Packets() int { return f.AtoB.Packets + f.BtoA.Packets }

// Retransmits returns the total retransmitted segment count.
func (f *Flow) Retransmits() int { return f.AtoB.Retransmits + f.BtoA.Retransmits }

// StreamPayload is a chunk of reassembled in-order payload delivered to
// a consumer. Data and Raw alias the fed packet's buffer (or the
// stream's internal reassembly scratch): they are valid only for the
// duration of the synchronous OnPayload call, and consumers must copy
// whatever they keep. This is what lets the ingest path reuse one
// packet buffer for the whole capture.
type StreamPayload struct {
	Flow     *Flow
	Src, Dst netip.AddrPort
	Time     time.Time // capture time of the segment completing this chunk
	Data     []byte
	// Raw is the segment's payload as captured, regardless of how
	// much of it was new: consumers that want to see retransmitted
	// bytes (the §6.3.1 ablation) read Raw instead of Data.
	Raw        []byte
	Retransmit bool // true when the segment was entirely already-seen data
}

// Consumer receives reassembled stream data and raw packet events.
type Consumer interface {
	// OnPayload is called for every segment that carries payload,
	// with the in-order new data it contributed (possibly empty for
	// pure retransmissions, which are flagged).
	OnPayload(StreamPayload)
}

// Tracker ingests decoded packets and maintains flow state.
type Tracker struct {
	flows    map[Key]*Flow
	order    []*Flow // insertion order for deterministic output
	consumer Consumer
	metrics  *trackerMetrics

	// lastFlow memoizes the most recent lookup: SCADA captures carry
	// long packet runs on one flow (and Key is direction-normalized),
	// so most Feeds skip the map hash entirely.
	lastFlow *Flow

	// first/last span every fed packet, so the capture window survives
	// flow eviction.
	first, last time.Time

	// idleTimeout > 0 enables streaming-mode eviction: flows whose last
	// packet is older than the timeout (in capture time) are dropped
	// from the table, their taxonomy folded into evicted. This bounds
	// memory on endless captures.
	idleTimeout time.Duration
	onEvict     func(*Flow)
	lastSweep   time.Time
	evicted     Summary
	evictedN    int
}

// NewTracker returns an empty tracker. consumer may be nil.
func NewTracker(consumer Consumer) *Tracker {
	return &Tracker{flows: make(map[Key]*Flow), consumer: consumer}
}

// Instrument books flow-lifecycle and reassembly counters into reg
// under the uncharted_tcpflow_* names.
func (t *Tracker) Instrument(reg *obs.Registry) {
	t.metrics = newTrackerMetrics(reg)
}

// SetIdleTimeout enables (d > 0) or disables (d <= 0) idle-flow
// eviction. Eviction keeps the Summarize taxonomy exact — evicted
// flows are folded into an accumulator — but Flows() no longer returns
// them, and a flow that wakes up after eviction is tracked as a fresh
// (long-lived) flow.
func (t *Tracker) SetIdleTimeout(d time.Duration) { t.idleTimeout = d }

// OnEvict registers a callback invoked for every evicted flow, before
// the flow is dropped. Consumers use it to release per-flow state of
// their own (reassembly buffers, framing state).
func (t *Tracker) OnEvict(fn func(*Flow)) { t.onEvict = fn }

// EvictIdle drops every flow whose last packet is older than the idle
// timeout relative to now (capture time) and returns how many were
// evicted. A zero timeout makes it a no-op.
func (t *Tracker) EvictIdle(now time.Time) int {
	if t.idleTimeout <= 0 {
		return 0
	}
	cutoff := now.Add(-t.idleTimeout)
	n := 0
	t.lastFlow = nil // may be about to be evicted
	kept := t.order[:0]
	for _, f := range t.order {
		if f.Last.After(cutoff) {
			kept = append(kept, f)
			continue
		}
		if t.onEvict != nil {
			t.onEvict(f)
		}
		delete(t.flows, f.Key)
		t.evicted.add(f)
		t.evictedN++
		t.metrics.noteFlowEvicted(f.closeCounts)
		n++
	}
	// Zero the freed tail so evicted flows are collectable.
	for i := len(kept); i < len(t.order); i++ {
		t.order[i] = nil
	}
	t.order = kept
	return n
}

// EvictedFlows returns how many flows eviction has dropped.
func (t *Tracker) EvictedFlows() int { return t.evictedN }

// Window returns the first and last packet timestamps ever fed,
// independent of eviction.
func (t *Tracker) Window() (first, last time.Time) { return t.first, t.last }

// Feed ingests one decoded TCP packet.
func (t *Tracker) Feed(pkt pcap.Packet) {
	src := netip.AddrPortFrom(pkt.IP.Src, pkt.TCP.SrcPort)
	dst := netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort)
	if t.first.IsZero() || pkt.Info.Timestamp.Before(t.first) {
		t.first = pkt.Info.Timestamp
	}
	if pkt.Info.Timestamp.After(t.last) {
		t.last = pkt.Info.Timestamp
	}
	if t.idleTimeout > 0 {
		// Sweep at a quarter of the timeout so an idle flow lives at
		// most 1.25 timeouts; capture time drives the clock, so replays
		// behave identically at any speed.
		if t.lastSweep.IsZero() {
			t.lastSweep = pkt.Info.Timestamp
		} else if pkt.Info.Timestamp.Sub(t.lastSweep) >= t.idleTimeout/4 {
			t.lastSweep = pkt.Info.Timestamp
			t.EvictIdle(t.last)
		}
	}
	key := MakeKey(src, dst)
	f := t.lastFlow
	if f == nil || f.Key != key {
		var ok bool
		f, ok = t.flows[key]
		if !ok {
			f = &Flow{Key: key, First: pkt.Info.Timestamp, Last: pkt.Info.Timestamp}
			f.streams[0] = newStream()
			f.streams[1] = newStream()
			t.flows[key] = f
			t.order = append(t.order, f)
			t.metrics.noteFlowOpened()
		}
		t.lastFlow = f
	}
	if pkt.Info.Timestamp.Before(f.First) {
		f.First = pkt.Info.Timestamp
	}
	if pkt.Info.Timestamp.After(f.Last) {
		f.Last = pkt.Info.Timestamp
	}
	if pkt.TCP.SYN() {
		f.SawSYN = true
		if !pkt.TCP.ACK() && !f.Initiator.IsValid() {
			f.Initiator = src
		}
	}
	if pkt.TCP.FIN() {
		f.SawFIN = true
	}
	if pkt.TCP.RST() {
		f.SawRST = true
	}
	if (f.SawFIN || f.SawRST) && !f.closeCounts {
		f.closeCounts = true
		t.metrics.noteFlowClosed()
	}

	dirIdx := 0
	ds := &f.AtoB
	if src != f.Key.A {
		dirIdx = 1
		ds = &f.BtoA
	}
	ds.Packets++
	ds.Bytes += len(pkt.IP.Payload)
	ds.PayloadBytes += len(pkt.TCP.Payload)

	if len(pkt.TCP.Payload) == 0 {
		return
	}
	newData, retrans, buffered := f.streams[dirIdx].insert(pkt.TCP.Seq, pkt.TCP.Payload)
	t.metrics.noteSegment(retrans, buffered)
	if retrans {
		ds.Retransmits++
	}
	if t.consumer != nil {
		t.consumer.OnPayload(StreamPayload{
			Flow: f, Src: src, Dst: dst,
			Time:       pkt.Info.Timestamp,
			Data:       newData,
			Raw:        pkt.TCP.Payload,
			Retransmit: retrans,
		})
	}
}

// Flows returns every tracked flow in first-seen order.
func (t *Tracker) Flows() []*Flow { return t.order }

// Summary aggregates the Table 3 numbers for one capture.
type Summary struct {
	ShortLived         int
	ShortLivedSubSec   int // short-lived flows lasting under one second
	ShortLivedOverSec  int
	LongLived          int
	ShortLivedDuration []time.Duration // durations for the Fig. 8 histogram
}

// Total returns the overall flow count.
func (s Summary) Total() int { return s.ShortLived + s.LongLived }

// Proportion helpers for report rendering (0 when the denominator is 0).
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ShortProportion is short-lived / total.
func (s Summary) ShortProportion() float64 { return ratio(s.ShortLived, s.Total()) }

// LongProportion is long-lived / total.
func (s Summary) LongProportion() float64 { return ratio(s.LongLived, s.Total()) }

// SubSecProportion is the fraction of short-lived flows lasting under a
// second — the paper's headline 99.8% (Y1) / 93.5% (Y2).
func (s Summary) SubSecProportion() float64 {
	return ratio(s.ShortLivedSubSec, s.ShortLived)
}

// add folds one classified flow into the summary.
func (s *Summary) add(f *Flow) {
	if f.Class() == LongLived {
		s.LongLived++
		return
	}
	s.ShortLived++
	d := f.Duration()
	s.ShortLivedDuration = append(s.ShortLivedDuration, d)
	if d < time.Second {
		s.ShortLivedSubSec++
	} else {
		s.ShortLivedOverSec++
	}
}

// Merge returns the element-wise sum of two summaries (shard merging).
func (s Summary) Merge(o Summary) Summary {
	s.ShortLived += o.ShortLived
	s.ShortLivedSubSec += o.ShortLivedSubSec
	s.ShortLivedOverSec += o.ShortLivedOverSec
	s.LongLived += o.LongLived
	merged := make([]time.Duration, 0, len(s.ShortLivedDuration)+len(o.ShortLivedDuration))
	merged = append(merged, s.ShortLivedDuration...)
	merged = append(merged, o.ShortLivedDuration...)
	s.ShortLivedDuration = merged
	return s
}

// Summarize classifies every flow, including any evicted ones.
func (t *Tracker) Summarize() Summary {
	s := Summary{
		ShortLived:         t.evicted.ShortLived,
		ShortLivedSubSec:   t.evicted.ShortLivedSubSec,
		ShortLivedOverSec:  t.evicted.ShortLivedOverSec,
		LongLived:          t.evicted.LongLived,
		ShortLivedDuration: append([]time.Duration(nil), t.evicted.ShortLivedDuration...),
	}
	for _, f := range t.order {
		s.add(f)
	}
	return s
}

// SessionKey identifies a session per the paper's definition: all
// packets sent in one direction between the same pair of endpoints
// (IP-level, so reconnections with fresh ports belong to one session).
type SessionKey struct {
	Src, Dst netip.Addr
}

// Session accumulates one direction of communication between two hosts.
type Session struct {
	Key          SessionKey
	Packets      int
	Bytes        int
	First, Last  time.Time
	interArrival []float64 // seconds between consecutive packets
	gapSum       float64   // their sum, added up as they are appended
	lastSeen     time.Time
}

// InterArrivals returns a copy of the gaps (in seconds) between
// consecutive packets of the session.
func (s *Session) InterArrivals() []float64 {
	return append([]float64(nil), s.interArrival...)
}

// MeanInterArrival returns the average spacing between consecutive
// packets in seconds (the Δt clustering feature).
func (s *Session) MeanInterArrival() float64 {
	if len(s.interArrival) == 0 {
		return 0
	}
	return s.gapSum / float64(len(s.interArrival))
}

// Sessions groups packets into directional host-pair sessions.
type Sessions struct {
	m     map[SessionKey]*Session
	order []*Session
	// last memoizes the two most recent lookups: sessions are
	// directional, so request/response traffic alternates between
	// exactly two keys.
	last [2]*Session
}

// NewSessions returns an empty session table.
func NewSessions() *Sessions {
	return &Sessions{m: make(map[SessionKey]*Session)}
}

// Feed ingests one decoded packet.
func (ss *Sessions) Feed(pkt pcap.Packet) *Session {
	key := SessionKey{Src: pkt.IP.Src, Dst: pkt.IP.Dst}
	var s *Session
	switch {
	case ss.last[0] != nil && ss.last[0].Key == key:
		s = ss.last[0]
	case ss.last[1] != nil && ss.last[1].Key == key:
		s = ss.last[1]
	default:
		var ok bool
		s, ok = ss.m[key]
		if !ok {
			s = &Session{Key: key, First: pkt.Info.Timestamp}
			ss.m[key] = s
			ss.order = append(ss.order, s)
		}
		ss.last[0], ss.last[1] = s, ss.last[0]
	}
	if s.Packets > 0 {
		gap := pkt.Info.Timestamp.Sub(s.lastSeen).Seconds()
		s.interArrival = append(s.interArrival, gap)
		s.gapSum += gap
	}
	s.Packets++
	s.Bytes += len(pkt.IP.Payload)
	s.Last = pkt.Info.Timestamp
	s.lastSeen = pkt.Info.Timestamp
	return s
}

// All returns the sessions in first-seen order.
func (ss *Sessions) All() []*Session { return ss.order }

// Sorted returns the sessions ordered by (src, dst) for deterministic
// reports.
func (ss *Sessions) Sorted() []*Session {
	out := append([]*Session(nil), ss.order...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if c := a.Src.Compare(b.Src); c != 0 {
			return c < 0
		}
		return a.Dst.Compare(b.Dst) < 0
	})
	return out
}
