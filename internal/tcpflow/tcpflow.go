// Package tcpflow tracks TCP flows in a capture: lifecycle flags,
// durations, the short-/long-lived classification of the paper (§6.2),
// per-direction byte and packet accounting, retransmission detection
// and in-order stream reassembly that feeds reassembled payload to an
// application-layer consumer.
package tcpflow

import (
	"encoding/binary"
	"math"
	"net/netip"
	"slices"
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

// flowKey is the flow table's key: the packet's 4-tuple flattened to
// pointer-free words, lower endpoint first, so the map hashes it with
// one pass over 40 bytes where Key (two netip.AddrPort, each holding a
// zone pointer) goes field by field. Addresses are in their 16-byte
// form; v6 tells a real IPv6 endpoint from the IPv4 address its mapped
// form would collide with (bit 1: a, bit 0: b). Zones are not part of
// the key: no address decoded off a wire carries one.
type flowKey struct {
	aHi, aLo, bHi, bLo uint64
	ports              uint32 // a's port in the high half, b's in the low
	v6                 uint32
}

// flatten returns an address as the two words of its 16-byte form and
// whether it is anything but IPv4.
func flatten(ip netip.Addr) (hi, lo uint64, v6 uint32) {
	if ip.Is4() {
		b := ip.As4()
		return 0, 0xffff<<32 | uint64(binary.BigEndian.Uint32(b[:])), 0
	}
	b := ip.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), 1
}

// flowKeyOf flattens the packet's endpoints. swapped reports that the
// sender is the key's b side.
func flowKeyOf(pkt *pcap.Packet) (k flowKey, swapped bool) {
	sHi, sLo, s6 := flatten(pkt.IP.Src)
	dHi, dLo, d6 := flatten(pkt.IP.Dst)
	sp, dp := uint32(pkt.TCP.SrcPort), uint32(pkt.TCP.DstPort)
	switch {
	case s6 != d6:
		swapped = s6 > d6
	case sHi != dHi:
		swapped = sHi > dHi
	case sLo != dLo:
		swapped = sLo > dLo
	default:
		swapped = sp > dp
	}
	if swapped {
		return flowKey{aHi: dHi, aLo: dLo, bHi: sHi, bLo: sLo, ports: dp<<16 | sp, v6: d6<<1 | s6}, true
	}
	return flowKey{aHi: sHi, aLo: sLo, bHi: dHi, bLo: dLo, ports: sp<<16 | dp, v6: s6<<1 | d6}, false
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

	// Slot is the tracker's Consumer's own state per direction (0: Key.A
	// sends, the StreamPayload.Dir of its chunks) — whatever it would
	// otherwise look up by address pair on every chunk. The tracker
	// never reads it; it is dropped with the flow on eviction, so a flow
	// that wakes up later starts with empty slots.
	Slot [2]any

	key  flowKey
	flip bool        // key's a side is Key.B (only if the two orders disagree)
	sess [2]*Session // directional sessions, parked by Sessions.FeedFlow

	streams     [2]stream // by value: a zero stream is ready to use
	closeCounts bool      // flow already booked as closed in the metrics
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
// packet buffer for the whole capture. Flow, too, is the tracker's
// record, which eviction zeroes and reuses: state that should live as
// long as the flow goes in its Slot, not in a table keyed by the
// pointer.
type StreamPayload struct {
	Flow *Flow
	// Dir is the chunk's direction within Flow: 0 when Flow.Key.A sent
	// it. It indexes Flow.Slot.
	Dir      int
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

// flowChunk is how many flow records the tracker carves out of one
// allocation. Opening a flow takes a record eviction gave back, else the
// next record of the current chunk, so a capture pays one allocation per
// 32 flows until its live set peaks and none after; a tracker holds at
// most its peak of live flows, rounded up to a chunk.
const flowChunk = 32

// Tracker ingests decoded packets and maintains flow state.
//
// A *Flow the tracker hands out (Track's result, StreamPayload.Flow, an
// element of Flows) is valid until the flow is evicted: the record is
// zeroed then and reused for a later flow.
type Tracker struct {
	flows    map[flowKey]*Flow
	order    []*Flow // insertion order for deterministic output
	consumer Consumer
	metrics  *trackerMetrics

	// lastFlow memoizes the most recent lookup: SCADA captures carry
	// long packet runs on one flow (and the key is direction-normalized),
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
	lastSweep   time.Time
	evicted     Summary
	evictedN    int

	// slab is the unused rest of the chunk open carves records from, and
	// free the records eviction zeroed, which open takes first.
	slab []Flow
	free []*Flow
}

// NewTracker returns an empty tracker. consumer may be nil.
func NewTracker(consumer Consumer) *Tracker {
	return &Tracker{flows: make(map[flowKey]*Flow), consumer: consumer}
}

// Instrument books flow-lifecycle and reassembly counters into reg
// under the uncharted_tcpflow_* names. The tracker tallies them locally;
// FlushMetrics publishes.
func (t *Tracker) Instrument(reg *obs.Registry) {
	t.metrics = newTrackerMetrics(reg)
}

// FlushMetrics adds what the tracker has tallied since the last flush
// to the registry's counters. Call it from the goroutine that feeds the
// tracker, at points where a reader of /metrics should catch up: the
// end of a batch, a snapshot, the end of the capture.
func (t *Tracker) FlushMetrics() { t.metrics.flush() }

// SetIdleTimeout enables (d > 0) or disables (d <= 0) idle-flow
// eviction. Eviction keeps the Summarize taxonomy exact — evicted
// flows are folded into an accumulator — but Flows() no longer returns
// them, and a flow that wakes up after eviction is tracked as a fresh
// (long-lived) flow.
func (t *Tracker) SetIdleTimeout(d time.Duration) { t.idleTimeout = d }

// EvictIdle drops every flow whose last packet is older than the idle
// timeout relative to now (capture time) and returns how many were
// evicted. A zero timeout makes it a no-op. An evicted record is zeroed
// at once, so nothing it pointed to (the consumer's slots, the parked
// sessions, the streams' buffers) stays reachable through it, and goes
// back to the tracker for the next flow it opens.
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
		delete(t.flows, f.key)
		t.evicted.add(f)
		t.evictedN++
		t.metrics.noteFlowEvicted(f.closeCounts)
		*f = Flow{}
		t.free = append(t.free, f)
		n++
	}
	// Zero the freed tail: order holds live flows only, and the evicted
	// records wait on the free list.
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

// Feed ingests one decoded TCP packet: Track for callers that hold the
// packet by value.
func (t *Tracker) Feed(pkt pcap.Packet) { t.Track(&pkt) }

// Track ingests one decoded TCP packet and returns the flow it belongs
// to and its direction within it (0 when Flow.Key.A is the sender). The
// flow is found with one hash of the flattened 4-tuple; everything a
// caller keeps per flow direction can hang off the returned pair. pkt
// is only read, and not retained.
func (t *Tracker) Track(pkt *pcap.Packet) (*Flow, int) {
	ts := pkt.Info.Timestamp
	if t.first.IsZero() || ts.Before(t.first) {
		t.first = ts
	}
	if ts.After(t.last) {
		t.last = ts
	}
	if t.idleTimeout > 0 {
		// Sweep at a quarter of the timeout so an idle flow lives at
		// most 1.25 timeouts; capture time drives the clock, so replays
		// behave identically at any speed.
		if t.lastSweep.IsZero() {
			t.lastSweep = ts
		} else if ts.Sub(t.lastSweep) >= t.idleTimeout/4 {
			t.lastSweep = ts
			t.EvictIdle(t.last)
		}
	}
	key, swapped := flowKeyOf(pkt)
	f := t.lastFlow
	if f == nil || f.key != key {
		var ok bool
		f, ok = t.flows[key]
		if !ok {
			f = t.open(pkt, key, swapped)
		}
		t.lastFlow = f
	}
	if ts.Before(f.First) {
		f.First = ts
	}
	if ts.After(f.Last) {
		f.Last = ts
	}
	if pkt.TCP.SYN() {
		f.SawSYN = true
		if !pkt.TCP.ACK() && !f.Initiator.IsValid() {
			f.Initiator = netip.AddrPortFrom(pkt.IP.Src, pkt.TCP.SrcPort)
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

	dir := 0
	ds := &f.AtoB
	if swapped != f.flip {
		dir = 1
		ds = &f.BtoA
	}
	ds.Packets++
	ds.Bytes += len(pkt.IP.Payload)
	ds.PayloadBytes += len(pkt.TCP.Payload)

	if len(pkt.TCP.Payload) == 0 {
		return f, dir
	}
	newData, retrans, buffered := f.streams[dir].insert(pkt.TCP.Seq, pkt.TCP.Payload)
	t.metrics.noteSegment(retrans, buffered)
	if retrans {
		ds.Retransmits++
	}
	if t.consumer != nil {
		t.consumer.OnPayload(StreamPayload{
			Flow: f, Dir: dir,
			Src:        netip.AddrPortFrom(pkt.IP.Src, pkt.TCP.SrcPort),
			Dst:        netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort),
			Time:       ts,
			Data:       newData,
			Raw:        pkt.TCP.Payload,
			Retransmit: retrans,
		})
	}
	return f, dir
}

// open starts tracking the flow pkt is the first packet of, in a zero
// record: one eviction gave back, or the next of the current chunk.
func (t *Tracker) open(pkt *pcap.Packet, key flowKey, swapped bool) *Flow {
	var f *Flow
	if n := len(t.free); n > 0 {
		f = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.slab) == 0 {
			t.slab = make([]Flow, flowChunk)
		}
		f = &t.slab[0]
		t.slab = t.slab[1:]
	}
	src := netip.AddrPortFrom(pkt.IP.Src, pkt.TCP.SrcPort)
	dst := netip.AddrPortFrom(pkt.IP.Dst, pkt.TCP.DstPort)
	f.Key = MakeKey(src, dst)
	f.First, f.Last = pkt.Info.Timestamp, pkt.Info.Timestamp
	f.key = key
	// The flattened order and MakeKey's agree for every pair of valid
	// addresses; flip keeps AtoB/BtoA right even if they did not.
	f.flip = (f.Key.A == src) == swapped
	t.flows[key] = f
	t.order = append(t.order, f)
	t.metrics.noteFlowOpened()
	return f
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

// Add folds another summary into s (shard merging): counts add and o's
// durations are appended to s's, so a merge that sizes s's list for
// every input first appends without regrowing it.
func (s *Summary) Add(o Summary) {
	s.ShortLived += o.ShortLived
	s.ShortLivedSubSec += o.ShortLivedSubSec
	s.ShortLivedOverSec += o.ShortLivedOverSec
	s.LongLived += o.LongLived
	s.ShortLivedDuration = append(s.ShortLivedDuration, o.ShortLivedDuration...)
}

// Summarize classifies every flow, including any evicted ones.
func (t *Tracker) Summarize() Summary { return t.SummarizeInto(nil) }

// SummarizeInto is Summarize with the duration list written over durs
// (from its start, whatever it held), so a caller that summarizes
// repeatedly reuses one list. Its shape is Summarize's: nil when there
// is no live flow and no evicted short-lived one.
func (t *Tracker) SummarizeInto(durs []time.Duration) Summary {
	// Sized as if every live flow were short-lived: at most one
	// allocation.
	n := len(t.evicted.ShortLivedDuration) + len(t.order)
	if n == 0 {
		durs = nil
	}
	durs = slices.Grow(durs[:0], n)
	s := Summary{
		ShortLived:         t.evicted.ShortLived,
		ShortLivedSubSec:   t.evicted.ShortLivedSubSec,
		ShortLivedOverSec:  t.evicted.ShortLivedOverSec,
		LongLived:          t.evicted.LongLived,
		ShortLivedDuration: append(durs, t.evicted.ShortLivedDuration...),
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

// Compare orders session keys by source, then destination address.
func (k SessionKey) Compare(o SessionKey) int {
	if c := k.Src.Compare(o.Src); c != 0 {
		return c
	}
	return k.Dst.Compare(o.Dst)
}

// Session accumulates one direction of communication between two hosts.
// Of the Packets-1 gaps between consecutive packets it keeps running
// moments, not the gaps: their sum (added in arrival order, so the mean
// is the one summing a list would give) and Welford's mean/M2 pair.
type Session struct {
	Key         SessionKey
	Packets     int
	Bytes       int
	First, Last time.Time
	gapSum      float64 // seconds
	gapMean     float64
	gapM2       float64 // summed squared deviation from gapMean
}

// MeanInterArrival returns the average spacing between consecutive
// packets in seconds (the Δt clustering feature).
func (s *Session) MeanInterArrival() float64 {
	if s.Packets < 2 {
		return 0
	}
	return s.gapSum / float64(s.Packets-1)
}

// StdInterArrival returns the population standard deviation of that
// spacing, in seconds.
func (s *Session) StdInterArrival() float64 {
	if s.Packets < 2 {
		return 0
	}
	return math.Sqrt(s.gapM2 / float64(s.Packets-1))
}

// Sessions groups packets into directional host-pair sessions.
type Sessions struct {
	m     map[SessionKey]*Session
	order []*Session
}

// NewSessions returns an empty session table.
func NewSessions() *Sessions {
	return &Sessions{m: make(map[SessionKey]*Session)}
}

// FeedFlow books pkt — direction dir of flow f, as Tracker.Track
// returned them — into its directional session. The session is looked
// up on the first packet of a flow direction and parked on the flow, so
// a flow must be fed to one session table only. With a nil f every
// packet is looked up.
func (ss *Sessions) FeedFlow(f *Flow, dir int, pkt *pcap.Packet) *Session {
	var s *Session
	if f != nil {
		s = f.sess[dir]
	}
	if s == nil {
		key := SessionKey{Src: pkt.IP.Src, Dst: pkt.IP.Dst}
		var ok bool
		s, ok = ss.m[key]
		if !ok {
			s = &Session{Key: key, First: pkt.Info.Timestamp}
			ss.m[key] = s
			ss.order = append(ss.order, s)
		}
		if f != nil {
			f.sess[dir] = s
		}
	}
	if s.Packets > 0 {
		gap := pkt.Info.Timestamp.Sub(s.Last).Seconds()
		s.gapSum += gap
		d := gap - s.gapMean
		s.gapMean += d / float64(s.Packets)
		s.gapM2 += d * (gap - s.gapMean)
	}
	s.Packets++
	s.Bytes += len(pkt.IP.Payload)
	s.Last = pkt.Info.Timestamp
	return s
}

// All returns the sessions in first-seen order.
func (ss *Sessions) All() []*Session { return ss.order }

// Sorted returns the sessions ordered by (src, dst) for deterministic
// reports.
func (ss *Sessions) Sorted() []*Session {
	out := slices.Clone(ss.order)
	slices.SortFunc(out, func(x, y *Session) int { return x.Key.Compare(y.Key) })
	return out
}
