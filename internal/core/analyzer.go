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

// endpointState holds the APDU framing buffer and IEC 104 sequence
// state of one flow direction. It is parked on the flow
// (tcpflow.Flow.Slot), so a chunk reaches it without a lookup and it
// goes away with the flow.
type endpointState struct {
	buf []byte
	// nextNS is the expected N(S) of the next I-frame; nsSeen arms
	// the check after the first I-frame.
	nextNS uint16
	nsSeen bool
	// dir caches the direction-constant lookups of consumeFrame.
	dir dirCache
}

// dirCache memoizes the lookups whose result depends only on the flow
// direction (source/destination address pair), so the per-frame path
// stops re-hashing map keys for them. The eagerly filled fields mirror
// state consumeFrame creates for every frame regardless of parse
// outcome; dc, toks and ioas stay lazy because their map entries must
// only exist once a frame (or I-frame) has actually been accepted.
type dirCache struct {
	filled         bool
	fromOutstation bool
	command        bool
	sc             *StationCompliance
	// ep is the sender's slot in the tolerant parser's dialect cache.
	ep          iec104.EndpointID
	ck          ConnKey
	skey        tcpflow.SessionKey
	serverName  string
	outName     string
	station     string
	stationAddr netip.Addr
	dc          *DirCounts
	toks        *tokenList
	ioas        *ioaSet
	// typeBooked has a bit per ASDU type this direction has already
	// entered into typeStations: the station of a direction never
	// changes, so only the first frame of a type needs the maps.
	typeBooked [4]uint64
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
// wants the stream itself records it with a FrameObserver.
type tokenList struct {
	chain markov.Chain
	cur   markov.Cursor
	vocab []iec104.Token
}

// connTokens returns connection k's token state, creating it on the
// connection's first accepted frame.
func (a *Analyzer) connTokens(k ConnKey) *tokenList {
	tl, ok := a.tokens[k]
	if !ok {
		tl = &tokenList{}
		a.tokens[k] = tl
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

	parser   *iec104.TolerantParser
	tracker  *tcpflow.Tracker
	sessions *tcpflow.Sessions
	store    *physical.Store

	// tokens per logical connection.
	tokens map[ConnKey]*tokenList
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

	// endpoints resolves a sender address to its slot in the tolerant
	// parser (keyed there by the rendered address); nameCache interns
	// rendered addresses for endpoints the address book does not know.
	// Both are consulted once per flow direction, so neither the
	// per-frame path nor a reconnect calls netip.Addr.String.
	endpoints map[netip.Addr]iec104.EndpointID
	nameCache map[netip.Addr]string

	// scratchAPDU / scratchASDU are the caller-owned decode targets of
	// consumeFrame's tolerant parse. They are reused for every frame,
	// which is safe because every consumer of an accepted frame
	// (accumulators, physical store, observers) extracts what it needs
	// before the next frame is parsed.
	scratchAPDU iec104.APDU
	scratchASDU iec104.ASDU

	// Errors the pipeline tolerated (non-IEC payloads, undecodable
	// frames), for reporting.
	ParseErrors int
	Packets     int
	IECPackets  int
	// SeqAnomalies counts I-frames whose N(S) did not continue the
	// per-connection sequence: lost packets the tap missed, capture
	// truncation, or a misbehaving stack.
	SeqAnomalies int
	// otherPorts tallies payload bytes of non-IEC-104 streams by
	// their well-known (lower) port — ICCP on 102, C37.118 on 4712...
	otherPorts map[uint16]int

	// DedupRetransmissions drops TCP-retransmitted APDU tokens (the
	// paper found repeated U16/U32 tokens were TCP retransmissions,
	// not endpoint behaviour). The ablation bench flips this off.
	DedupRetransmissions bool

	// metrics and journal are nil until Instrument attaches them; every
	// note* helper and Journal.Log is nil-safe, so the uninstrumented
	// hot path pays only a pointer test.
	metrics *analyzerMetrics
	journal *obs.Journal

	// lane is the flight-recorder lane FeedPacket spans land on; nil
	// (the default) costs one branch per packet.
	lane *trace.Lane

	// observer, when set, sees every accepted APDU as it is consumed —
	// the hook online detectors (ids.Monitor) attach to.
	observer FrameObserver

	// Multi-protocol state. protocols marks dialects enabled beyond
	// IEC 104 (which keeps its specialised path above); detectUnknown
	// additionally content-sniffs streams on ports no dialect owns.
	// Both are off by default, so an un-configured analyzer behaves —
	// byte for byte — like the IEC 104-only one.
	protocols     map[protocol.ID]bool
	detectUnknown bool
	// protoFlowList keeps every claimed flow for snapshot-time
	// compliance collection.
	protoFlowList []*protoFlow
	// connProto records the dialect of each non-IEC-104 logical
	// connection (absent = IEC 104).
	connProto map[ConnKey]protocol.ID
	// dialectStats accumulates per-dialect frame/error/byte tallies.
	dialectStats map[protocol.ID]*dialectTally
}

// dialectTally is the analyzer-side accumulator behind DialectStat. It
// counts tokens by value, so the per-frame path never renders a token
// string; Dialects renders the textual keys at snapshot time.
type dialectTally struct {
	frames, parseErrors, bytes int
	// tokens holds one counter per distinct token, by pointer, so a flow
	// direction can keep the slot of the token it keeps repeating.
	tokens map[protocol.Token]*int
}

// slot returns the counter of tok, creating it on first use.
func (ds *dialectTally) slot(tok protocol.Token) *int {
	n, ok := ds.tokens[tok]
	if !ok {
		n = new(int)
		ds.tokens[tok] = n
	}
	return n
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

// protoDir is one flow direction's generic decode state, parked on the
// flow like endpointState. Both directions share one *protoFlow
// (dialects pair requests with responses across directions). A nil
// *protoDir in the slot is the negative cache: the flow was inspected
// and claimed by no enabled dialect.
type protoDir struct {
	flow        *protoFlow
	fromStation bool
	// skey / dc mirror the IEC 104 dirCache: the directional session
	// tally this direction books into.
	skey tcpflow.SessionKey
	dc   *DirCounts
	buf  []byte
	// lastTok / lastCount memoise the tally slot of the direction's
	// previous token: a PMU stream repeats one data-frame token, each
	// direction of a Modbus association its request or its response.
	lastTok   protocol.Token
	lastCount *int
}

// protoFlow is the per-flow state shared by both directions.
type protoFlow struct {
	proto protocol.ID
	sess  protocol.Session
	// ds is the flow's dialect tally, resolved when the flow first
	// delivers fresh bytes.
	ds *dialectTally
	ck ConnKey
	// serverName / outName / station are resolved once per flow.
	serverName, outName, station string
	toks                         *tokenList
}

// FrameEvent describes one accepted application frame for live
// observers.
type FrameEvent struct {
	Time time.Time
	// Proto is the dialect the frame belongs to (IEC 104 unless the
	// analyzer has other protocols enabled).
	Proto protocol.ID
	// Conn is the logical server/outstation relationship.
	Conn ConnKey
	// Server / Outstation are the resolved names of the endpoints.
	Server, Outstation string
	// FromOutstation is true for monitor-direction frames.
	FromOutstation bool
	Token          iec104.Token
	// ASDU is set for IEC 104 I-format frames only.
	ASDU *iec104.ASDU
	// Points carries the frame's extracted measurements for non-IEC-104
	// dialects (IEC 104 observers extract from the ASDU). Like the
	// ASDU, the slice is scratch: valid only during the ObserveFrame
	// call.
	Points []protocol.Point
}

// FrameObserver receives every accepted APDU in arrival order. It is
// called synchronously on the analysis path, so implementations must
// be fast and must not retain the ASDU.
type FrameObserver interface {
	ObserveFrame(FrameEvent)
}

// SetFrameObserver attaches (or, with nil, detaches) a live observer.
func (a *Analyzer) SetFrameObserver(o FrameObserver) { a.observer = o }

// EnableProtocols turns on generic registry decoding for the given
// dialects: streams on an enabled dialect's registered port are framed
// and tokenised by that dialect's Session instead of landing in the
// OtherPorts tally. IEC 104 needs no enabling — it always runs through
// the analyzer's specialised path — and unregistered IDs are ignored.
// With no protocols enabled the analyzer's output is byte-identical to
// the IEC 104-only pipeline.
func (a *Analyzer) EnableProtocols(ids ...protocol.ID) {
	if a.protocols == nil {
		a.protocols = make(map[protocol.ID]bool)
		a.connProto = make(map[ConnKey]protocol.ID)
		a.dialectStats = make(map[protocol.ID]*dialectTally)
	}
	for _, id := range ids {
		if id == protocol.IEC104 {
			continue
		}
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
	var ids []protocol.ID
	for _, d := range protocol.All() {
		ids = append(ids, d.ID())
	}
	a.EnableProtocols(ids...)
	a.detectUnknown = true
}

// EnableProtocolNames applies a -proto style protocol list: each name
// enables that dialect, "auto" switches on full auto-detection, and
// "iec104" alone is the (default) single-protocol mode.
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
		if id == protocol.IEC104 {
			continue
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
// direction and builds its decode state. Returns nil when no dialect
// claims the flow (the negative-cache entry).
func (a *Analyzer) claimFlow(sp *tcpflow.StreamPayload) *protoDir {
	// The reverse direction may already be claimed; both directions
	// share one session so dialects can pair requests with responses.
	if rev, ok := sp.Flow.Slot[1-sp.Dir].(*protoDir); ok {
		if rev == nil {
			return nil
		}
		return &protoDir{
			flow:        rev.flow,
			fromStation: !rev.fromStation,
			skey:        tcpflow.SessionKey{Src: sp.Src.Addr(), Dst: sp.Dst.Addr()},
		}
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
	pf := &protoFlow{
		proto:      d.ID(),
		sess:       d.NewSession(),
		ck:         ConnKey{Server: server, Outstation: station},
		serverName: a.Name(server),
		outName:    a.Name(station),
		station:    a.Name(station),
	}
	a.protoFlowList = append(a.protoFlowList, pf)
	return &protoDir{
		flow:        pf,
		fromStation: fromStation,
		skey:        tcpflow.SessionKey{Src: srcAddr, Dst: dstAddr},
	}
}

// feedDialect routes a non-IEC-104 stream chunk through the registry.
// It reports whether an enabled dialect consumed the chunk.
func (a *Analyzer) feedDialect(sp *tcpflow.StreamPayload) bool {
	pd, seen := sp.Flow.Slot[sp.Dir].(*protoDir)
	if !seen {
		pd = a.claimFlow(sp)
		sp.Flow.Slot[sp.Dir] = pd
	}
	if pd == nil {
		return false
	}
	if sp.Retransmit {
		// Generic sessions are stateful across frames (config frames,
		// transaction pairing), so retransmitted bytes are dropped
		// rather than replayed through the session.
		return true
	}
	if len(sp.Data) == 0 {
		return true
	}
	if pd.flow.ds == nil {
		pd.flow.ds = a.dialectStatFor(pd.flow.proto)
	}
	pd.flow.ds.bytes += len(sp.Data)
	buf := sp.Data
	if len(pd.buf) > 0 {
		pd.buf = append(pd.buf, sp.Data...)
		buf = pd.buf
	}
	for {
		ev, rest, skipped, ok := pd.flow.sess.Next(buf, pd.fromStation)
		if skipped > 0 {
			a.metrics.noteResync(skipped)
		}
		if !ok {
			pd.buf = append(pd.buf[:0], rest...)
			return true
		}
		buf = rest
		a.consumeDialectEvent(pd, sp, ev)
	}
}

// consumeDialectEvent books one generic decoded frame into the shared
// accumulators — the dialect-neutral mirror of consumeFrame.
func (a *Analyzer) consumeDialectEvent(pd *protoDir, sp *tcpflow.StreamPayload, ev protocol.Event) {
	pf := pd.flow
	if ev.Err != nil {
		pf.ds.parseErrors++
		a.ParseErrors++
		return
	}
	pf.ds.frames++
	if pd.lastCount == nil || pd.lastTok != ev.Token {
		pd.lastTok, pd.lastCount = ev.Token, pf.ds.slot(ev.Token)
	}
	*pd.lastCount++

	if pf.toks == nil {
		pf.toks = a.connTokens(pf.ck)
		a.connProto[pf.ck] = pf.proto
	}
	pf.toks.push(ev.Token)

	if pd.dc == nil {
		dc, ok := a.sessionAPDUs[pd.skey]
		if !ok {
			dc = &DirCounts{}
			a.sessionAPDUs[pd.skey] = dc
		}
		pd.dc = dc
	}
	// The session feature vector keys on the I/S/U role mix; other
	// dialects map through the token's class.
	switch ev.Token.Class() {
	case protocol.ClassAck:
		pd.dc.S++
	case protocol.ClassControl:
		pd.dc.U++
	default:
		pd.dc.I++
	}

	if len(ev.Points) > 0 {
		a.store.FeedPoints(pf.station, pf.proto, ev.Points, sp.Time)
	}
	if a.observer != nil {
		a.observer.ObserveFrame(FrameEvent{
			Time:           sp.Time,
			Proto:          pf.proto,
			Conn:           pf.ck,
			Server:         pf.serverName,
			Outstation:     pf.outName,
			FromOutstation: pd.fromStation,
			Token:          ev.Token,
			Points:         ev.Points,
		})
	}
}

func (a *Analyzer) dialectStatFor(id protocol.ID) *dialectTally {
	ds, ok := a.dialectStats[id]
	if !ok {
		ds = &dialectTally{tokens: make(map[protocol.Token]*int)}
		a.dialectStats[id] = ds
	}
	return ds
}

// Dialects returns per-dialect traffic summaries sorted by dialect ID.
// Empty unless EnableProtocols saw traffic.
func (a *Analyzer) Dialects() []DialectStat {
	out := make([]DialectStat, 0, len(a.dialectStats))
	for id, ds := range a.dialectStats {
		st := DialectStat{
			Proto: id, Frames: ds.frames, ParseErrors: ds.parseErrors, Bytes: ds.bytes,
			TokenCounts: make(map[string]int, len(ds.tokens)),
		}
		for t, n := range ds.tokens {
			st.TokenCounts[t.String()] += *n
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(x, y DialectStat) int { return cmp.Compare(x.Proto, y.Proto) })
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
	for _, pf := range a.protoFlowList {
		cr, ok := pf.sess.(protocol.ComplianceReporter)
		if !ok {
			continue
		}
		conn := pf.serverName + "-" + pf.outName
		for _, sc := range cr.Compliance() {
			sc.Proto = pf.proto
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
		parser:               iec104.NewTolerantParser(),
		sessions:             tcpflow.NewSessions(),
		store:                physical.NewStore(),
		tokens:               make(map[ConnKey]*tokenList),
		sessionAPDUs:         make(map[tcpflow.SessionKey]*DirCounts),
		sessionIOAs:          make(map[tcpflow.SessionKey]*ioaSet),
		typeStations:         make(map[iec104.TypeID]map[netip.Addr]bool),
		compliance:           make(map[netip.Addr]*StationCompliance),
		endpoints:            make(map[netip.Addr]iec104.EndpointID),
		nameCache:            make(map[netip.Addr]string),
		otherPorts:           make(map[uint16]int),
		DedupRetransmissions: true,
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

// endpoint resolves a sender to its slot in the tolerant parser.
func (a *Analyzer) endpoint(addr netip.Addr) iec104.EndpointID {
	id, ok := a.endpoints[addr]
	if !ok {
		id = a.parser.Endpoint(addr.String())
		a.endpoints[addr] = id
	}
	return id
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

// OnPayload implements tcpflow.Consumer: it receives reassembled
// in-order stream data and runs APDU framing plus tolerant parsing.
// Streams that do not touch the IEC 104 port (the tap also carries
// C37.118 synchrophasors, ICCP and other plant traffic) are tallied
// and skipped.
func (a *Analyzer) OnPayload(chunk tcpflow.StreamPayload) {
	sp := &chunk
	if sp.Src.Port() != IEC104Port && sp.Dst.Port() != IEC104Port {
		if a.protocols != nil && a.feedDialect(sp) {
			return
		}
		a.notePortTraffic(sp)
		return
	}
	if sp.Retransmit {
		if a.DedupRetransmissions {
			return
		}
		// Ablation mode: process the retransmitted segment's raw
		// bytes as if they were fresh traffic. Real captures analysed
		// packet-by-packet (no reassembly) see exactly this, which is
		// how the paper first mistook repeated U16/U32 tokens for
		// endpoint behaviour (§6.3.1). The bytes bypass the framing
		// buffer so they cannot desynchronise the live stream.
		for buf := sp.Raw; len(buf) > 0; {
			// Resyncs inside a replay re-skip bytes the live stream
			// already counted, so they stay out of the metrics.
			frame, rest, _, ok := nextFrame(buf)
			if !ok {
				break
			}
			buf = rest
			// nil sequence state: retransmitted frames must not
			// trip the continuity check.
			a.consumeFrame(sp, frame, nil)
		}
		return
	}
	if len(sp.Data) == 0 {
		return
	}
	st, ok := sp.Flow.Slot[sp.Dir].(*endpointState)
	if !ok {
		st = &endpointState{}
		sp.Flow.Slot[sp.Dir] = st
	}
	// Fast path: with no partial frame pending, scan the segment in
	// place instead of copying it into the framing buffer. Only a
	// trailing partial frame (or resync tail) is retained. sp.Data may
	// live in a pooled buffer that is recycled after this call, so the
	// tail must be copied out before returning.
	buf := sp.Data
	if len(st.buf) > 0 {
		st.buf = append(st.buf, sp.Data...)
		buf = st.buf
	}
	for {
		frame, rest, skipped, ok := nextFrame(buf)
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
			// the stream. rest may overlap st.buf; copy is a memmove.
			st.buf = append(st.buf[:0], rest...)
			return
		}
		buf = rest
		a.consumeFrame(sp, frame, st)
	}
}

// nextFrame extracts one APDU from the front of buf. The framing and
// garbage-skip live with the codec (iec104.NextFrame), so the
// analyzer's specialised IEC 104 path and the generic protocol.Session
// path can never drift in resync behaviour.
func nextFrame(buf []byte) (frame, rest []byte, skipped int, ok bool) {
	return iec104.NextFrame(buf)
}

// consumeFrame parses one APDU and updates every accumulator. st
// carries the flow direction's sequence state (nil when the frame is a
// retransmission replay that must not advance it).
func (a *Analyzer) consumeFrame(sp *tcpflow.StreamPayload, frame []byte, st *endpointState) {
	var c *dirCache
	if st != nil {
		c = &st.dir
	} else {
		c = &dirCache{}
	}
	if !c.filled {
		a.fillDirCache(c, sp)
	}

	sc := c.sc
	sc.Frames++

	_, err := a.parser.ParseFrameAt(c.ep, frame, &a.scratchAPDU, &a.scratchASDU)
	if err != nil {
		a.ParseErrors++
		if a.metrics != nil || a.journal != nil {
			cause := parseErrorCause(err)
			a.metrics.noteParseError(cause)
			a.journalEvent(sp.Time, obs.EventParseError, connLabel(sp), map[string]any{
				"cause":     cause,
				"frame_len": len(frame),
			})
		}
		return
	}
	// apdu (and its ASDU) are the analyzer's scratch: valid only until
	// the next frame is parsed, never retained past this function.
	apdu := &a.scratchAPDU
	a.metrics.noteFrame(apdu.Format)

	if apdu.Format == iec104.FormatI {
		// Record the strict-parser verdict for the compliance report.
		// Once the tolerant parser has pinned the endpoint's dialect,
		// the verdict is a constant of the dialect — running the full
		// 5-profile detection per frame would dominate large-capture
		// analysis time for no information.
		strictInvalid := false
		if sc.Detected {
			if !sc.Profile.IsStandard() {
				sc.StrictInvalid++
				strictInvalid = true
			}
		} else if !a.parser.StrictPlausible(frame) {
			sc.StrictInvalid++
			strictInvalid = true
		}
		if p, ok := a.parser.ProfileAt(c.ep); ok {
			newlyDetected := !sc.Detected
			// A flip is the station settling on a legacy dialect, or a
			// pinned dialect changing; first detection of the standard
			// profile is the expected case, not a flip.
			flipped := (newlyDetected && !p.IsStandard()) ||
				(!newlyDetected && sc.Profile != p)
			sc.Profile = p
			sc.Detected = true
			if newlyDetected || flipped {
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
		if strictInvalid && a.metrics != nil {
			// Label by the dialect that rescued the frame; detection
			// above may have just pinned it.
			dialect := "undetected"
			if sc.Detected {
				dialect = sc.Profile.String()
			}
			a.metrics.noteStrictInvalid(dialect)
		}
		// N(S) continuity per flow direction.
		if st != nil {
			if st.nsSeen && apdu.SendSeq != st.nextNS {
				a.SeqAnomalies++
				a.metrics.noteSeqAnomaly()
				if a.journal != nil {
					a.journalEvent(sp.Time, obs.EventSeqAnomaly, connLabel(sp), map[string]any{
						"expected_ns": st.nextNS,
						"got_ns":      apdu.SendSeq,
					})
				}
			}
			st.nsSeen = true
			st.nextNS = (apdu.SendSeq + 1) & 0x7FFF
		}
	}

	// Token stream per logical connection. The list is created on the
	// first accepted frame only, so parse-error-only directions keep no
	// entry (exactly as before the cache).
	tok := apdu.Token()
	if c.toks == nil {
		c.toks = a.connTokens(c.ck)
	}
	c.toks.push(tok)
	if a.observer != nil {
		a.observer.ObserveFrame(FrameEvent{
			Time:           sp.Time,
			Conn:           c.ck,
			Server:         c.serverName,
			Outstation:     c.outName,
			FromOutstation: c.fromOutstation,
			Token:          tok,
			ASDU:           apdu.ASDU,
		})
	}

	// Directional session APDU mix.
	if c.dc == nil {
		dc, ok := a.sessionAPDUs[c.skey]
		if !ok {
			dc = &DirCounts{}
			a.sessionAPDUs[c.skey] = dc
		}
		c.dc = dc
	}
	switch apdu.Format {
	case iec104.FormatI:
		c.dc.I++
	case iec104.FormatS:
		c.dc.S++
	case iec104.FormatU:
		c.dc.U++
	}

	if apdu.Format == iec104.FormatI && apdu.ASDU != nil {
		typ := apdu.ASDU.Type
		a.typeCounts[typ]++
		a.totalASDUs++
		if c.ioas == nil {
			ioas, ok := a.sessionIOAs[c.skey]
			if !ok {
				ioas = &ioaSet{}
				a.sessionIOAs[c.skey] = ioas
			}
			c.ioas = ioas
		}
		for i := range apdu.ASDU.Objects {
			c.ioas.add(apdu.ASDU.Objects[i].IOA)
		}
		if word, bit := &c.typeBooked[typ>>6], uint64(1)<<(typ&63); *word&bit == 0 {
			*word |= bit
			ts, ok := a.typeStations[typ]
			if !ok {
				ts = make(map[netip.Addr]bool)
				a.typeStations[typ] = ts
			}
			ts[c.stationAddr] = true
		}
		a.store.Feed(c.station, apdu.ASDU, sp.Time, c.command)
	}
}

// fillDirCache computes the direction-constant half of consumeFrame
// once per flow direction. Everything created here (the compliance
// entry, interned strings) is state consumeFrame previously created on
// every frame regardless of parse outcome, so eager filling changes no
// observable behaviour.
func (a *Analyzer) fillDirCache(c *dirCache, sp *tcpflow.StreamPayload) {
	srcAddr := sp.Src.Addr()
	dstAddr := sp.Dst.Addr()
	c.fromOutstation = sp.Src.Port() == IEC104Port
	c.sc = a.complianceFor(srcAddr)
	c.ep = a.endpoint(srcAddr)
	c.ck = ConnKey{Server: srcAddr, Outstation: dstAddr}
	if c.fromOutstation {
		c.ck = ConnKey{Server: dstAddr, Outstation: srcAddr}
	}
	c.serverName = a.Name(c.ck.Server)
	c.outName = a.Name(c.ck.Outstation)
	c.skey = tcpflow.SessionKey{Src: srcAddr, Dst: dstAddr}
	c.station = a.Name(srcAddr)
	c.stationAddr = srcAddr
	if !c.fromOutstation {
		c.station = a.Name(dstAddr)
		c.stationAddr = dstAddr
		c.command = true
	}
	c.filled = true
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

// notePortTraffic accounts a non-IEC stream chunk under the lower
// (well-known) port of the pair.
func (a *Analyzer) notePortTraffic(sp *tcpflow.StreamPayload) {
	port := sp.Src.Port()
	if sp.Dst.Port() < port {
		port = sp.Dst.Port()
	}
	a.otherPorts[port] += len(sp.Data)
}

// otherPortsInto writes the payload byte counts of non-IEC-104 streams
// by well-known port (the ICCP / C37.118 traffic the paper's tap also
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

// ConnKeys returns every logical connection sorted by name.
func (a *Analyzer) ConnKeys() []ConnKey {
	out := make([]ConnKey, 0, len(a.tokens))
	for k := range a.tokens {
		out = append(out, k)
	}
	slices.SortFunc(out, func(x, y ConnKey) int {
		if c := x.Server.Compare(y.Server); c != 0 {
			return c
		}
		return x.Outstation.Compare(y.Outstation)
	})
	return out
}

// CaptureWindow returns the first/last packet timestamps seen. The
// window comes from the flow tracker's packet clock, so it survives
// streaming-mode flow eviction.
func (a *Analyzer) CaptureWindow() (time.Time, time.Time) {
	return a.tracker.Window()
}

// EnableFlowEviction turns on idle-flow eviction in the tracker for
// streaming over endless captures: flows idle longer than timeout are
// dropped, and with them what the analyzer parked on them — the APDU
// framing buffer and sequence state, or the generic dialect's decode
// state and negative-cache mark (stream compliance lives on the
// protoFlow record, which survives in protoFlowList) — keeping memory
// bounded. The flow taxonomy stays exact; a flow that wakes up after
// eviction re-enters as a fresh long-lived flow.
func (a *Analyzer) EnableFlowEviction(timeout time.Duration) {
	a.tracker.SetIdleTimeout(timeout)
}
