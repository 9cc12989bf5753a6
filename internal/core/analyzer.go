// Package core is the paper's measurement pipeline as a library: feed
// it a capture (synthesized or real) and it produces every analysis of
// §6 — the TCP flow taxonomy, IEC 104 compliance report with tolerant
// dialect detection, session features and clusters, per-connection
// Markov chains with the eight-way outstation classification, the ASDU
// type distribution, and the physical time series with event
// signatures.
package core

import (
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/obs"
	"uncharted/internal/obs/trace"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
	"uncharted/internal/tcpflow"
	"uncharted/internal/topology"
)

// IEC104Port is the registered TCP port of IEC 60870-5-104.
const IEC104Port = 2404

// ConnKey identifies a control-server / outstation relationship at the
// host level: every reconnection (fresh ephemeral port) belongs to the
// same logical connection, the way the paper labels them "C2-O30".
type ConnKey struct {
	Server     netip.Addr
	Outstation netip.Addr
}

// DirCounts tallies APDU formats for one directional session.
type DirCounts struct {
	I, S, U int
}

// Total returns the APDU count.
func (d DirCounts) Total() int { return d.I + d.S + d.U }

// dirState is one flow direction's state, in every dialect. It is
// parked on the flow (tcpflow.Flow.Slot), so a chunk reaches it without
// a lookup and it goes away with the flow. It holds the dialect session
// both directions share, the framing buffer, the direction's booking
// record — dialect, logical connection, direction — resolved once, so
// the per-frame path hashes no map key for it, and the slots of what
// its frames book into. Those slots (dc, toks, ds, sc, ioas) stay nil
// until the first frame that books into them, because their map entries
// must only exist once such a frame has arrived. A nil *dirState in the
// slot is the negative cache: the flow was inspected and claimed by no
// enabled dialect.
type dirState struct {
	proto          protocol.ID
	fromOutstation bool
	sess           protocol.Session
	buf            []byte
	ck             ConnKey

	dc   *DirCounts
	toks *tokenList
	ds   *dialectTally
	sc   *StationCompliance
	ioas *ioaSet
	// nextSeq is the expected sequence number of the next data unit;
	// seqSeen arms the continuity check after the first one.
	nextSeq uint16
	seqSeen bool
	// typeBooked has a bit per unit type this direction has already
	// entered into typeStations: the station of a direction never
	// changes, so only the first unit of a type needs the maps.
	typeBooked [4]uint64
}

// skey is the direction's directional host pair.
func (d *dirState) skey() tcpflow.SessionKey {
	if d.fromOutstation {
		return tcpflow.SessionKey{Src: d.ck.Outstation, Dst: d.ck.Server}
	}
	return tcpflow.SessionKey{Src: d.ck.Server, Dst: d.ck.Outstation}
}

// ioaSet is the set of distinct information object addresses one
// directional session has carried. Every object of every I-frame is
// added, so the common case must not hash: field IOAs cluster low (the
// dialect detector's plausibility score assumes as much), and addresses
// below 2¹⁶ are a bitset grown to the highest one seen. Only the rest
// go to a map.
type ioaSet struct {
	low  []uint64
	high map[uint32]struct{}
	n    int
}

func (s *ioaSet) add(ioa uint32) {
	if ioa < 1<<16 {
		w := int(ioa >> 6)
		if w >= len(s.low) {
			s.low = append(s.low, make([]uint64, w+1-len(s.low))...)
		}
		if bit := uint64(1) << (ioa & 63); s.low[w]&bit == 0 {
			s.low[w] |= bit
			s.n++
		}
		return
	}
	if _, ok := s.high[ioa]; !ok {
		if s.high == nil {
			s.high = make(map[uint32]struct{})
		}
		s.high[ioa] = struct{}{}
		s.n++
	}
}

// size is the number of distinct addresses; a nil set is empty.
func (s *ioaSet) size() int {
	if s == nil {
		return 0
	}
	return s.n
}

// tokenList is what one logical connection keeps of its token stream:
// chain counts it as it arrives (cur is the write position), so a
// snapshot clones a count table, and vocab lists the chain's nodes in
// first-seen order. Both are bounded by the alphabet; a caller that
// wants the stream itself records it with a FrameObserver. The
// endpoints' names ride along for the frames booked on the connection,
// and its label for the chains every seal publishes.
type tokenList struct {
	chain                      markov.Chain
	cur                        markov.Cursor
	vocab                      []iec104.Token
	serverName, outName, label string
}

// connTokens returns connection k's token state, creating it on the
// connection's first accepted frame.
func (a *Analyzer) connTokens(k ConnKey) *tokenList {
	tl, ok := a.tokens[k]
	if !ok {
		tl = &tokenList{serverName: a.Name(k.Server), outName: a.Name(k.Outstation)}
		tl.label = chainLabel(tl.serverName, tl.outName)
		a.tokens[k] = tl
		a.connOrder = append(a.connOrder, k)
		a.connSorted = false
	}
	return tl
}

func (tl *tokenList) push(tok iec104.Token) {
	n := tl.chain.Nodes()
	tl.chain.Observe(&tl.cur, tok)
	if tl.chain.Nodes() != n {
		tl.vocab = append(tl.vocab, tok)
	}
}

// Analyzer ingests decoded packets and accumulates every §6 analysis.
type Analyzer struct {
	names map[netip.Addr]string

	tracker  *tcpflow.Tracker
	sessions *tcpflow.Sessions
	store    *physical.Store

	// tokens per logical connection.
	tokens map[ConnKey]*tokenList
	// connOrder lists tokens' keys and sessionOrder the session table's
	// sessions, each in report order and kept from one seal to the next:
	// they are re-sorted only after connTokens or Sessions.FeedFlow added
	// one (connSorted false, sessionOrder shorter than the table).
	connOrder    []ConnKey
	connSorted   bool
	sessionOrder []*tcpflow.Session
	// sessionAPDUs tallies formats per directional host pair.
	sessionAPDUs map[tcpflow.SessionKey]*DirCounts
	// sessionIOAs tracks distinct information object addresses per
	// directional session (one of the ten candidate features of §6.3).
	sessionIOAs map[tcpflow.SessionKey]*ioaSet

	typeCounts [256]int // by iec104.TypeID
	totalASDUs int
	// typeStations tracks, per ASDU type, the outstations involved:
	// the sender for monitor-direction types, the target for commands
	// (Table 8's "transmitting station count").
	typeStations map[iec104.TypeID]map[netip.Addr]bool

	compliance map[netip.Addr]*StationCompliance

	// nameCache interns rendered addresses for endpoints the address
	// book does not know, so neither the per-frame path nor a reconnect
	// calls netip.Addr.String.
	nameCache map[netip.Addr]string

	// Errors the pipeline tolerated (undecodable frames of any
	// dialect), for reporting.
	ParseErrors int
	Packets     int
	IECPackets  int
	// SeqAnomalies counts data units (IEC 104 I-frames) whose sequence
	// number did not continue the per-direction sequence: lost packets
	// the tap missed, capture truncation, or a misbehaving stack.
	SeqAnomalies int
	// otherPorts tallies payload bytes of streams no enabled dialect
	// claimed by their well-known (lower) port — ICCP on 102, C37.118
	// on 4712 unless enabled...
	otherPorts map[uint16]int

	// DedupRetransmissions drops TCP-retransmitted frames in every
	// dialect (the paper found repeated U16/U32 tokens were TCP
	// retransmissions, not endpoint behaviour). The ablation bench
	// flips this off.
	DedupRetransmissions bool

	// metrics and journal are nil until Instrument attaches them; every
	// note* helper and Journal.Log is nil-safe, so the uninstrumented
	// hot path pays only a pointer test.
	metrics *analyzerMetrics
	journal *obs.Journal

	// lane is the flight-recorder lane FeedPacket spans land on; nil
	// (the default) costs one branch per packet.
	lane *trace.Lane

	// observer, when set, sees every accepted frame as it is booked —
	// the hook online detectors (ids.Monitor) attach to.
	observer FrameObserver

	// protocols marks the enabled dialects, protocol.Default from the
	// start; detectUnknown additionally content-sniffs streams on ports
	// no dialect owns. An un-configured analyzer claims IEC 104 on its
	// port and tallies everything else in otherPorts.
	protocols     map[protocol.ID]bool
	detectUnknown bool
	// scopes holds the open Scope of every protocol.Scoped dialect.
	scopes map[protocol.ID]protocol.Scope
	// protoDirs keeps the claiming direction of every claimed flow whose
	// session reports stream compliance, for snapshot-time collection.
	protoDirs []*dirState
	// dialectStats accumulates per-dialect error and byte tallies.
	dialectStats map[protocol.ID]*dialectTally
}

// dialectTally is the analyzer-side accumulator behind DialectStat. A
// dialect's frames are not counted here: every accepted frame is a
// token its connection's chain counts, so Dialects sums the chains.
type dialectTally struct {
	parseErrors, bytes int
}

// DialectStat is one dialect's traffic summary in a snapshot.
type DialectStat struct {
	Proto       protocol.ID
	Frames      int
	ParseErrors int
	// Bytes counts reassembled payload bytes fed to the dialect.
	Bytes int
	// TokenCounts tallies the dialect's emitted tokens by their textual
	// form.
	TokenCounts map[string]int
}

// FrameEvent describes one accepted application frame for live
// observers.
type FrameEvent struct {
	Time time.Time
	// Proto is the dialect the frame belongs to.
	Proto protocol.ID
	// Conn is the logical server/outstation relationship.
	Conn ConnKey
	// Server / Outstation are the resolved names of the endpoints.
	Server, Outstation string
	// FromOutstation is true for monitor-direction frames.
	FromOutstation bool
	Token          protocol.Token
	// Points carries the frame's measurements in every dialect — for
	// IEC 104, iec104.AppendPoints of an I-format frame's ASDU — exactly
	// as the analyzer's physical store receives them. The slice is
	// scratch: valid only during the ObserveFrame call.
	Points []protocol.Point
}

// FrameObserver receives every accepted frame in arrival order. It is
// called synchronously on the analysis path, so implementations must
// be fast and must not retain the Points.
type FrameObserver interface {
	ObserveFrame(FrameEvent)
}

// SetFrameObserver attaches (or, with nil, detaches) a live observer.
func (a *Analyzer) SetFrameObserver(o FrameObserver) { a.observer = o }

// EnableProtocols turns on the given dialects beside protocol.Default
// (IEC 104), which is enabled from the start: streams on an enabled
// dialect's registered port are framed and tokenised by that dialect's
// Session instead of landing in the OtherPorts tally. Unregistered IDs
// are ignored.
func (a *Analyzer) EnableProtocols(ids ...protocol.ID) {
	for _, id := range ids {
		if protocol.Get(id) != nil {
			a.protocols[id] = true
		}
	}
}

// EnableProtocolDetect enables every registered dialect and
// additionally content-sniffs streams on ports no dialect owns,
// claiming them for the first dialect whose Sniff accepts the first
// payload — the mixed-capture auto-detect mode.
func (a *Analyzer) EnableProtocolDetect() {
	for _, d := range protocol.All() {
		a.protocols[d.ID()] = true
	}
	a.detectUnknown = true
}

// EnableProtocolNames applies a -proto style protocol list: each name
// enables that dialect and "auto" switches on full auto-detection;
// "iec104" alone is the default.
func (a *Analyzer) EnableProtocolNames(names ...string) error {
	for _, name := range names {
		if name == "auto" {
			a.EnableProtocolDetect()
			continue
		}
		id, ok := protocol.ParseID(name)
		if !ok {
			return fmt.Errorf("unknown protocol %q", name)
		}
		a.EnableProtocols(id)
	}
	return nil
}

// enabledByPort resolves the enabled dialect owning a TCP port.
func (a *Analyzer) enabledByPort(port uint16) protocol.Dialect {
	d := protocol.ByPort(port)
	if d == nil || !a.protocols[d.ID()] {
		return nil
	}
	return d
}

// claimFlow decides whether an enabled dialect owns a new flow
// direction — by registered port, else, in auto-detect mode, by content
// sniff — and builds its state. Returns nil when no dialect claims the
// flow (the negative-cache entry).
func (a *Analyzer) claimFlow(sp *tcpflow.StreamPayload) *dirState {
	// The reverse direction may already be claimed; both directions
	// share one session so dialects can pair requests with responses.
	if rev, ok := sp.Flow.Slot[1-sp.Dir].(*dirState); ok {
		if rev == nil {
			return nil
		}
		return &dirState{proto: rev.proto, fromOutstation: !rev.fromOutstation, sess: rev.sess, ck: rev.ck}
	}
	d := a.enabledByPort(sp.Dst.Port())
	if d == nil {
		d = a.enabledByPort(sp.Src.Port())
	}
	if d == nil {
		if !a.detectUnknown {
			return nil
		}
		if d = protocol.Detect(sp.Data); d == nil || !a.protocols[d.ID()] {
			return nil
		}
	}
	srcAddr, dstAddr := sp.Src.Addr(), sp.Dst.Addr()
	var fromStation bool
	var server, station netip.Addr
	switch {
	case sp.Dst.Port() == d.Port():
		// src dialled the port owner.
		if d.StationInitiates() {
			fromStation, server, station = true, dstAddr, srcAddr
		} else {
			fromStation, server, station = false, srcAddr, dstAddr
		}
	case sp.Src.Port() == d.Port():
		if d.StationInitiates() {
			fromStation, server, station = false, srcAddr, dstAddr
		} else {
			fromStation, server, station = true, dstAddr, srcAddr
		}
	default:
		// Content-sniffed flow with no registered port on either side:
		// orient by the dialect's initiation convention — the first
		// talker is the station exactly when stations dial out.
		fromStation = d.StationInitiates()
		server, station = dstAddr, srcAddr
		if !fromStation {
			server, station = srcAddr, dstAddr
		}
	}
	st := &dirState{
		proto:          d.ID(),
		fromOutstation: fromStation,
		sess:           a.session(d, server, station),
		ck:             ConnKey{Server: server, Outstation: station},
	}
	if _, ok := st.sess.(protocol.ComplianceReporter); ok {
		a.protoDirs = append(a.protoDirs, st)
	}
	return st
}

// session returns the session of a new flow between server and
// station: from the dialect's scope when it is protocol.Scoped (opened
// on first use), else a fresh one.
func (a *Analyzer) session(d protocol.Dialect, server, station netip.Addr) protocol.Session {
	sd, ok := d.(protocol.Scoped)
	if !ok {
		return d.NewSession()
	}
	sc, ok := a.scopes[d.ID()]
	if !ok {
		sc = sd.NewScope()
		a.scopes[d.ID()] = sc
	}
	return sc.Session(server, station)
}

// OnPayload implements tcpflow.Consumer: it receives reassembled
// in-order stream data and frames it through the session of the dialect
// that claimed the flow direction. Streams no enabled dialect claims
// (the tap also carries ICCP and other plant traffic) are tallied by
// port and skipped.
func (a *Analyzer) OnPayload(chunk tcpflow.StreamPayload) {
	sp := &chunk
	d, seen := sp.Flow.Slot[sp.Dir].(*dirState)
	if !seen {
		d = a.claimFlow(sp)
		sp.Flow.Slot[sp.Dir] = d
	}
	if d == nil {
		a.notePortTraffic(sp)
		return
	}
	if sp.Retransmit {
		if !a.DedupRetransmissions {
			a.replay(d, sp)
		}
		return
	}
	if len(sp.Data) == 0 {
		return
	}
	a.tally(d).bytes += len(sp.Data)
	// Fast path: with no partial frame pending, scan the segment in
	// place instead of copying it into the framing buffer. Only a
	// trailing partial frame (or resync tail) is retained. sp.Data may
	// live in a pooled buffer that is recycled after this call, so the
	// tail must be copied out before returning.
	buf := sp.Data
	if len(d.buf) > 0 {
		d.buf = append(d.buf, sp.Data...)
		buf = d.buf
	}
	for {
		ev, rest, skipped, ok := d.sess.Next(buf, d.fromOutstation)
		if skipped > 0 {
			a.metrics.noteResync(skipped)
			if a.journal != nil {
				a.journalEvent(sp.Time, obs.EventResync, connLabel(sp), map[string]any{
					"skipped_bytes": skipped,
				})
			}
		}
		if !ok {
			// Copy-to-front also bounds the buffer: the consumed prefix
			// is reclaimed instead of the backing array growing with
			// the stream. rest may overlap d.buf; copy is a memmove.
			d.buf = append(d.buf[:0], rest...)
			return
		}
		a.book(d, sp, &ev, len(buf)-len(rest)-skipped, true)
		buf = rest
	}
}

// replay is the retransmission ablation (DedupRetransmissions off): the
// retransmitted segment's raw bytes are framed as if they were fresh
// traffic. Real captures analysed packet-by-packet (no reassembly) see
// exactly this, which is how the paper first mistook repeated U16/U32
// tokens for endpoint behaviour (§6.3.1). The bytes bypass the framing
// buffer so they cannot desynchronise the live stream; resyncs inside a
// replay re-skip bytes the live stream already counted, so they stay
// out of the metrics; and replayed units leave the sequence check be.
func (a *Analyzer) replay(d *dirState, sp *tcpflow.StreamPayload) {
	a.tally(d)
	for buf := sp.Raw; ; {
		ev, rest, skipped, ok := d.sess.Next(buf, d.fromOutstation)
		if !ok {
			return
		}
		a.book(d, sp, &ev, len(buf)-len(rest)-skipped, false)
		buf = rest
	}
}

// tally resolves the direction's dialect tally on its first fresh bytes
// or replayed segment, so a dialect's entry exists once it saw traffic.
func (a *Analyzer) tally(d *dirState) *dialectTally {
	if d.ds == nil {
		d.ds = a.dialectStatFor(d.proto)
	}
	return d.ds
}

// book books one framed event of any dialect into its direction. A
// parse error is counted with its cause. An accepted frame has its data
// unit recorded when the dialect reports one (bookUnit), extends the
// connection's token stream, is counted in its direction's I/S/U mix by
// the token's class (for IEC 104 exactly the APDU format), has its
// measurements stored under the outstation and goes to the live
// observer. ev is the session's scratch; frameLen is the frame's size
// for the journal; fresh is false for a retransmission replay.
func (a *Analyzer) book(d *dirState, sp *tcpflow.StreamPayload, ev *protocol.Event, frameLen int, fresh bool) {
	if ev.Detail != nil {
		if d.sc == nil {
			d.sc = a.complianceFor(d.skey().Src)
		}
		d.sc.Frames++
	}
	if ev.Err != nil {
		d.ds.parseErrors++
		a.ParseErrors++
		if a.metrics != nil || a.journal != nil {
			cause := cmp.Or(ev.Cause, "other")
			a.metrics.noteParseError(cause)
			if a.journal != nil {
				a.journalEvent(sp.Time, obs.EventParseError, connLabel(sp), map[string]any{
					"cause":     cause,
					"frame_len": frameLen,
				})
			}
		}
		return
	}
	a.metrics.noteFrame(ev.Token)
	if ev.Detail != nil && ev.Detail.Unit {
		a.bookUnit(d, sp, ev.Detail, fresh)
	}
	if d.toks == nil {
		d.toks = a.connTokens(d.ck)
	}
	d.toks.push(ev.Token)
	if d.dc == nil {
		k := d.skey()
		dc, ok := a.sessionAPDUs[k]
		if !ok {
			dc = &DirCounts{}
			a.sessionAPDUs[k] = dc
		}
		d.dc = dc
	}
	switch ev.Token.Class() {
	case protocol.ClassAck:
		d.dc.S++
	case protocol.ClassControl:
		d.dc.U++
	default:
		d.dc.I++
	}
	if len(ev.Points) > 0 {
		a.store.FeedPoints(d.toks.outName, d.proto, ev.Points, sp.Time)
	}
	if a.observer != nil {
		a.observer.ObserveFrame(FrameEvent{
			Time:           sp.Time,
			Proto:          d.proto,
			Conn:           d.ck,
			Server:         d.toks.serverName,
			Outstation:     d.toks.outName,
			FromOutstation: d.fromOutstation,
			Token:          ev.Token,
			Points:         ev.Points,
		})
	}
}

// bookUnit records a data unit's details: the sender's strict verdict
// and settled encoding (journalled when the station settles on a legacy
// dialect or changes dialect), the direction's sequence continuity
// unless the unit is a replay, the type counts and stations, and the
// IOA set.
func (a *Analyzer) bookUnit(d *dirState, sp *tcpflow.StreamPayload, u *protocol.Detail, fresh bool) {
	sc := d.sc
	if u.StrictInvalid {
		sc.StrictInvalid++
	}
	if u.Settled != nil {
		// The compliance row is the §6.1 report, whose dialects are the
		// tolerant parser's profiles.
		p, _ := u.Settled.(iec104.Profile)
		newlyDetected := !sc.Detected
		// A flip is the station settling on a legacy dialect, or a
		// pinned dialect changing; first detection of the standard
		// profile is the expected case, not a flip.
		flipped := (newlyDetected && !p.IsStandard()) ||
			(!newlyDetected && sc.Profile != p)
		sc.Profile = p
		sc.Detected = true
		if (newlyDetected || flipped) && a.journal != nil {
			a.journalEvent(sp.Time, obs.EventConnState, connLabel(sp), map[string]any{
				"state":   "dialect_detected",
				"station": sc.Name,
				"dialect": p.String(),
			})
		}
		if flipped {
			a.metrics.noteFlip()
		}
	}
	if u.StrictInvalid && a.metrics != nil {
		// Label by the dialect that rescued the frame; detection above
		// may have just pinned it.
		dialect := "undetected"
		if sc.Detected {
			dialect = sc.Profile.String()
		}
		a.metrics.noteStrictInvalid(dialect)
	}
	if fresh {
		if d.seqSeen && u.Seq != d.nextSeq {
			a.SeqAnomalies++
			a.metrics.noteSeqAnomaly()
			if a.journal != nil {
				a.journalEvent(sp.Time, obs.EventSeqAnomaly, connLabel(sp), map[string]any{
					"expected_ns": d.nextSeq,
					"got_ns":      u.Seq,
				})
			}
		}
		d.seqSeen = true
		d.nextSeq = u.NextSeq
	}
	typ := iec104.TypeID(u.Type)
	a.typeCounts[typ]++
	a.totalASDUs++
	if d.ioas == nil {
		k := d.skey()
		ioas, ok := a.sessionIOAs[k]
		if !ok {
			ioas = &ioaSet{}
			a.sessionIOAs[k] = ioas
		}
		d.ioas = ioas
	}
	for _, ioa := range u.Addrs {
		d.ioas.add(ioa)
	}
	if word, bit := &d.typeBooked[typ>>6], uint64(1)<<(typ&63); *word&bit == 0 {
		*word |= bit
		ts, ok := a.typeStations[typ]
		if !ok {
			ts = make(map[netip.Addr]bool)
			a.typeStations[typ] = ts
		}
		ts[d.ck.Outstation] = true
	}
}

func (a *Analyzer) dialectStatFor(id protocol.ID) *dialectTally {
	ds, ok := a.dialectStats[id]
	if !ok {
		ds = &dialectTally{}
		a.dialectStats[id] = ds
	}
	return ds
}

// Dialects returns per-dialect traffic summaries sorted by dialect ID:
// one per dialect other than IEC 104 that saw traffic.
//
// IEC 104 is tallied like every dialect but left out here, the one place
// that decides it: an IEC 104 row would make every IEC 104-only profile,
// golden file and saved profile a codec version 2 encoding (the drift
// codec writes version 2 whenever Dialects is non-empty), and since a
// seal builds Dialects afresh, it would add a map and a string per token
// to every shard's seal. Its frames, tokens and errors are in the
// Partial's chains, type counts, compliance rows and ParseErrors.
//
// A dialect's frames and token counts are its tokens' counts in the
// connections' chains, which count every accepted frame's token.
func (a *Analyzer) Dialects() []DialectStat {
	out := make([]DialectStat, 0, len(a.dialectStats))
	for id, ds := range a.dialectStats {
		if id == protocol.IEC104 {
			continue
		}
		out = append(out, DialectStat{Proto: id, ParseErrors: ds.parseErrors, Bytes: ds.bytes, TokenCounts: make(map[string]int)})
	}
	if len(out) == 0 {
		return out
	}
	slices.SortFunc(out, func(x, y DialectStat) int { return cmp.Compare(x.Proto, y.Proto) })
	for _, tl := range a.tokens {
		for _, tok := range tl.vocab {
			i, ok := slices.BinarySearchFunc(out, tok.Proto, func(st DialectStat, id protocol.ID) int { return cmp.Compare(st.Proto, id) })
			if !ok {
				continue
			}
			n := tl.chain.Count(tok)
			out[i].Frames += n
			out[i].TokenCounts[tok.String()] += n
		}
	}
	return out
}

// StreamCompliance collects per-stream dialect-compliance verdicts
// from every claimed flow whose session reports them (e.g. C37.118
// data-rate conformance). Entries for the same (dialect, connection,
// unit) — a flow that dropped and re-dialled — are folded together.
func (a *Analyzer) StreamCompliance() []protocol.StreamCompliance {
	type key struct {
		proto protocol.ID
		conn  string
		unit  string
	}
	merged := make(map[key]*protocol.StreamCompliance)
	var order []key
	for _, d := range a.protoDirs {
		conn := a.Name(d.ck.Server) + "-" + a.Name(d.ck.Outstation)
		for _, sc := range d.sess.(protocol.ComplianceReporter).Compliance() {
			sc.Proto = d.proto
			sc.Conn = conn
			k := key{sc.Proto, sc.Conn, sc.Unit}
			cur, ok := merged[k]
			if !ok {
				cp := sc
				merged[k] = &cp
				order = append(order, k)
				continue
			}
			if sc.Frames > cur.Frames {
				cur.ConfiguredRate, cur.ObservedRate = sc.ConfiguredRate, sc.ObservedRate
				cur.Compliant, cur.Detail = sc.Compliant, sc.Detail
			}
			cur.Frames += sc.Frames
			cur.Errors += sc.Errors
		}
	}
	out := make([]protocol.StreamCompliance, 0, len(order))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	slices.SortFunc(out, compareStreams)
	return out
}

// compareStreams orders stream verdicts by dialect, connection, unit.
func compareStreams(x, y protocol.StreamCompliance) int {
	if x.Proto != y.Proto {
		return cmp.Compare(x.Proto, y.Proto)
	}
	if c := strings.Compare(x.Conn, y.Conn); c != 0 {
		return c
	}
	return strings.Compare(x.Unit, y.Unit)
}

// StationCompliance is the §6.1 verdict for one endpoint.
type StationCompliance struct {
	Addr   netip.Addr
	Name   string
	Frames int
	// StrictInvalid counts I-frames a standard-profile parser rejects
	// or misreads.
	StrictInvalid int
	// Profile is the dialect the tolerant parser settled on.
	Profile iec104.Profile
	// Detected is false until an I-frame fixed the dialect.
	Detected bool
}

// NonCompliant reports whether the station needs a legacy dialect.
func (sc *StationCompliance) NonCompliant() bool {
	return sc.Detected && !sc.Profile.IsStandard()
}

// NewAnalyzer builds an empty pipeline. names maps addresses to the
// topology's labels (C1, O30, ...); unknown addresses are rendered
// numerically.
func NewAnalyzer(names map[netip.Addr]string) *Analyzer {
	a := &Analyzer{
		names:                names,
		sessions:             tcpflow.NewSessions(),
		store:                physical.NewStore(),
		tokens:               make(map[ConnKey]*tokenList),
		sessionAPDUs:         make(map[tcpflow.SessionKey]*DirCounts),
		sessionIOAs:          make(map[tcpflow.SessionKey]*ioaSet),
		typeStations:         make(map[iec104.TypeID]map[netip.Addr]bool),
		compliance:           make(map[netip.Addr]*StationCompliance),
		nameCache:            make(map[netip.Addr]string),
		otherPorts:           make(map[uint16]int),
		DedupRetransmissions: true,
		protocols:            map[protocol.ID]bool{protocol.Default: true},
		scopes:               make(map[protocol.ID]protocol.Scope),
		dialectStats:         make(map[protocol.ID]*dialectTally),
	}
	a.tracker = tcpflow.NewTracker(a)
	return a
}

// Instrument books the analyzer's counters into reg, instruments the
// flow tracker, and attaches an optional event journal. Either argument
// may be nil.
//
// The per-packet and per-frame counters are tallied privately and reach
// reg when FlushMetrics runs — which Partial and ReadPCAP do themselves.
func (a *Analyzer) Instrument(reg *obs.Registry, j *obs.Journal) {
	if reg != nil {
		a.metrics = newAnalyzerMetrics(reg)
		a.tracker.Instrument(reg)
	}
	a.journal = j
}

// FlushMetrics publishes what the analyzer and its flow tracker have
// counted since the last flush. Several analyzers share one registry's
// series (every shard of an engine does), so the feed path counts in
// its own memory and whoever drives the analyzer flushes where a reader
// of /metrics should catch up: the engine after every batch, Partial at
// every snapshot, ReadPCAP when the capture ends. Must be called from
// the goroutine that feeds the analyzer. A no-op without a registry.
func (a *Analyzer) FlushMetrics() {
	a.metrics.flush()
	a.tracker.FlushMetrics()
}

// NoteDecodeErrors books n capture records that failed link-layer
// decoding before reaching the analyzer — what a caller that decodes
// for it (the streaming engine's shard) discards. Tallied like the
// per-packet counters: FlushMetrics publishes it.
func (a *Analyzer) NoteDecodeErrors(n int) { a.metrics.noteDecodeErrors(n) }

// NamesFromTopology builds the address book of the simulated network.
func NamesFromTopology(net *topology.Network) map[netip.Addr]string {
	m := make(map[netip.Addr]string)
	for _, s := range net.Servers {
		m[s.Addr] = string(s.ID)
	}
	for _, o := range net.Outstations() {
		m[o.Addr] = string(o.ID)
	}
	return m
}

// Name renders an address through the address book. Unknown addresses
// are rendered numerically once and interned, so repeated lookups on
// the frame path do not allocate.
func (a *Analyzer) Name(addr netip.Addr) string {
	if n, ok := a.names[addr]; ok {
		return n
	}
	if n, ok := a.nameCache[addr]; ok {
		return n
	}
	n := addr.String()
	a.nameCache[addr] = n
	return n
}

// SetTraceLane attaches (or, with nil, detaches) a flight-recorder
// lane: FeedPacket then records one sampled StageFeed span per packet.
// The lane is single-producer, so it must belong to the goroutine that
// calls FeedPacket — in the streaming engine, the owning shard's lane.
func (a *Analyzer) SetTraceLane(l *trace.Lane) { a.lane = l }

// FeedPacket ingests one decoded TCP packet: Feed for callers that hold
// the packet by value.
func (a *Analyzer) FeedPacket(pkt pcap.Packet) { a.Feed(&pkt) }

// Feed ingests one decoded TCP packet. The flow tracker finds the
// packet's flow — the one hash a packet costs — and everything else
// that is per flow direction (the session, the framing and sequence
// state, the generic dialect's decode state) hangs off that flow. pkt
// is only read, and nothing keeps it or its bytes past the call.
func (a *Analyzer) Feed(pkt *pcap.Packet) {
	sp := a.lane.Start()
	a.Packets++
	iec := pkt.TCP.SrcPort == IEC104Port || pkt.TCP.DstPort == IEC104Port
	if iec {
		a.IECPackets++
	}
	a.metrics.notePacket(iec)
	f, dir := a.tracker.Track(pkt)
	a.sessions.FeedFlow(f, dir, pkt)
	a.lane.End(sp, trace.StageFeed, 1, -1)
}

func (a *Analyzer) complianceFor(addr netip.Addr) *StationCompliance {
	sc, ok := a.compliance[addr]
	if !ok {
		sc = &StationCompliance{Addr: addr, Name: a.Name(addr), Profile: iec104.Standard}
		a.compliance[addr] = sc
	}
	return sc
}

// ReadPCAP runs the whole pipeline over a capture stream in either
// classic pcap or pcapng format. Packets that are not IPv4/TCP are
// skipped (taps also carry ARP, ICCP, C37.118 and other plant traffic
// the paper leaves to future work). An instrumented analyzer's counters
// are flushed once, when the read ends.
func (a *Analyzer) ReadPCAP(r io.Reader) error {
	pr, err := pcap.NewAutoReader(r)
	if err != nil {
		return err
	}
	defer a.FlushMetrics()
	// One scratch buffer and one packet serve the whole capture:
	// nothing downstream of Feed retains the packet or its bytes past
	// the call (reassembly and framing copy what they buffer), so each
	// record may overwrite the previous one.
	var (
		scratch []byte
		pkt     pcap.Packet
	)
	for {
		data, ci, err := pr.ReadPacketInto(scratch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: reading capture: %w", err)
		}
		scratch = data
		if pcap.DecodePacketInto(&pkt, pr.LinkType(), ci, data) != nil {
			a.metrics.noteDecodeErrors(1)
			continue
		}
		a.Feed(&pkt)
	}
}

// notePortTraffic accounts an unclaimed stream chunk under the lower
// (well-known) port of the pair.
func (a *Analyzer) notePortTraffic(sp *tcpflow.StreamPayload) {
	port := sp.Src.Port()
	if sp.Dst.Port() < port {
		port = sp.Dst.Port()
	}
	a.otherPorts[port] += len(sp.Data)
}

// otherPortsInto writes the payload byte counts of unclaimed streams by
// well-known port (the ICCP / C37.118 traffic the paper's tap also
// carried and left for future work) over m, or into a new map when m is
// nil, and returns it.
func (a *Analyzer) otherPortsInto(m map[uint16]int) map[uint16]int {
	clear(m)
	if m == nil {
		m = make(map[uint16]int, len(a.otherPorts))
	}
	for p, n := range a.otherPorts {
		m[p] = n
	}
	return m
}

// TypeStations returns, per ASDU type, the distinct outstations
// involved (Table 8's "transmitting station count"). For commands the
// addressed outstation is counted, matching the paper's per-station
// semantics.
func (a *Analyzer) TypeStations() map[iec104.TypeID][]string {
	out := make(map[iec104.TypeID][]string, len(a.typeStations))
	for t, m := range a.typeStations {
		for addr := range m {
			out[t] = append(out[t], a.Name(addr))
		}
		sort.Strings(out[t])
	}
	return out
}

// Flows exposes the flow tracker (Table 3 / Fig 8).
func (a *Analyzer) Flows() *tcpflow.Tracker { return a.tracker }

// Sessions exposes the directional host-pair sessions.
func (a *Analyzer) Sessions() *tcpflow.Sessions { return a.sessions }

// Physical exposes the extracted time-series store.
func (a *Analyzer) Physical() *physical.Store { return a.store }

// ConnTokens returns one logical connection's live Markov chain and
// its vocabulary in first-seen order (nil, nil for an unknown one).
// Both belong to the analyzer: read, do not modify.
func (a *Analyzer) ConnTokens(k ConnKey) (*markov.Chain, []iec104.Token) {
	if tl, ok := a.tokens[k]; ok {
		return &tl.chain, tl.vocab
	}
	return nil, nil
}

// ConnKeys returns every logical connection sorted by name, in a list
// of the caller's own.
func (a *Analyzer) ConnKeys() []ConnKey {
	return slices.Clone(a.sortedConnKeys())
}

// sortedConnKeys is connOrder sorted by server, then outstation. The
// list is the analyzer's: callers only read it.
func (a *Analyzer) sortedConnKeys() []ConnKey {
	if !a.connSorted {
		slices.SortFunc(a.connOrder, func(x, y ConnKey) int {
			if c := x.Server.Compare(y.Server); c != 0 {
				return c
			}
			return x.Outstation.Compare(y.Outstation)
		})
		a.connSorted = true
	}
	return a.connOrder
}

// sortedSessions is the session table in Sessions.Sorted's order. The
// list is the analyzer's: callers only read it.
func (a *Analyzer) sortedSessions() []*tcpflow.Session {
	if all := a.sessions.All(); len(a.sessionOrder) != len(all) {
		a.sessionOrder = append(a.sessionOrder, all[len(a.sessionOrder):]...)
		slices.SortFunc(a.sessionOrder, func(x, y *tcpflow.Session) int { return x.Key.Compare(y.Key) })
	}
	return a.sessionOrder
}

// CaptureWindow returns the first/last packet timestamps seen. The
// window comes from the flow tracker's packet clock, so it survives
// streaming-mode flow eviction.
func (a *Analyzer) CaptureWindow() (time.Time, time.Time) {
	return a.tracker.Window()
}

// EnableFlowEviction turns on idle-flow eviction in the tracker for
// streaming over endless captures: flows idle longer than timeout are
// dropped, and with them what the analyzer parked on them — each
// direction's framing buffer, sequence state and claim, or the
// negative-cache mark (stream compliance lives on the claiming
// dirState, which survives in protoDirs; a scoped dialect's session
// lives in its scope) — keeping memory bounded. The flow taxonomy stays exact; a flow that wakes up after
// eviction re-enters as a fresh long-lived flow.
func (a *Analyzer) EnableFlowEviction(timeout time.Duration) {
	a.tracker.SetIdleTimeout(timeout)
}
