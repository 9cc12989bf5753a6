package iec104

import (
	"errors"
	"math"
	"net/netip"

	"uncharted/internal/protocol"
)

// framing is the IEC 104 head rule: the start byte and a length octet
// from 4 (an S or U frame) to MaxAPDULen. A longer one is a false
// start, as Sniff and the parser judge it.
var framing = protocol.Framing{
	Sync: StartByte,
	Head: 2,
	Max:  2 + MaxAPDULen,
	Length: func(head []byte) int {
		if head[1] < 4 || head[1] > MaxAPDULen {
			return 0
		}
		return 2 + int(head[1])
	},
}

// NextFrame is framing.Next, kept only for the benchmark module's IEC
// 104 layer, which frames without a session until ROADMAP item 1(j).
func NextFrame(buf []byte) (frame, rest []byte, skipped int, ok bool) { return framing.Next(buf) }

// dialect implements protocol.Dialect for IEC 60870-5-104.
type dialect struct{}

func (dialect) ID() protocol.ID            { return protocol.IEC104 }
func (dialect) Name() string               { return "iec104" }
func (dialect) Port() uint16               { return 2404 }
func (dialect) StationInitiates() bool     { return false }
func (dialect) Framing() *protocol.Framing { return &framing }

// NewSession returns a session with a scope of its own, whose tolerant
// parser keys the two directions of the flow as "master" and "station".
func (dialect) NewSession() protocol.Session {
	sc := newScope()
	return &session{sc: sc, ep: [2]EndpointID{sc.parser.Endpoint("master"), sc.parser.Endpoint("station")}}
}

// NewScope returns the IEC 104 state of one analyzer: one tolerant
// parser whose dialect cache every flow of a station shares.
func (dialect) NewScope() protocol.Scope { return newScope() }

// Sniff accepts a plausible APCI head, judged further by the codec's
// own control-field decode: a 4-octet APDU is an S or a U frame naming
// one function, a longer one an I frame with room for an ASDU header
// that does not read as a Modbus MBAP header.
func (dialect) Sniff(b []byte) bool {
	if len(b) < 6 || !framing.Plausible(b) {
		return false
	}
	if b[2]&0x01 == 0 { // I format
		// An MBAP header whose transaction ID starts with the start
		// byte reads as an I frame: its zero protocol ID is N(S) 0, and
		// its 2..255 length field, big-endian, is N(R) 256 or more, a
		// whole multiple of 128. An IEC 104 sender writes that head
		// only after receiving 256 or more I frames while sending none
		// (or just wrapping N(S)), so such a head is left to Modbus.
		if b[2]|b[3]|b[4] == 0 && b[5] >= 2 {
			return false
		}
		return int(b[1]) >= 4+asduHeaderLen
	}
	// An S or U APCI is six octets with no ASDU, so this decodes the
	// control field and nothing else.
	var a APDU
	_, err := ParseAPDUInto(&a, nil, b[:6], Standard, true)
	return err == nil
}

// asduHeaderLen is the standard ASDU header: type identification,
// variable structure qualifier, a 2-octet cause of transmission and a
// 2-octet common address.
const asduHeaderLen = 6

// causes labels the decode failures of the tolerant parser for the
// malformed-frame breakdown, in the order errors.Is tries them.
var causes = []struct {
	err   error
	label string
}{
	{ErrNoProfile, "no_profile"},
	{ErrShortFrame, "short_frame"},
	{ErrBadStartByte, "bad_start_byte"},
	{ErrBadLength, "bad_length"},
	{ErrBadControl, "bad_control"},
	{ErrShortASDU, "short_asdu"},
	{ErrUnsupportedType, "unsupported_type"},
	{ErrObjectCount, "object_count"},
	{ErrNoObjects, "no_objects"},
	{ErrTrailing, "trailing_bytes"},
}

// Causes lists the labels a session's parse errors carry in
// protocol.Event.Cause, besides "other": a metrics registry shows each
// at zero before the first error.
func Causes() []string {
	out := make([]string, len(causes))
	for i, c := range causes {
		out[i] = c.label
	}
	return out
}

// causeOf labels a tolerant-parser failure.
func causeOf(err error) string {
	for _, c := range causes {
		if errors.Is(err, c.err) {
			return c.label
		}
	}
	return "other"
}

// AppendPoints appends the measurements an ASDU carries to dst: one
// protocol.Point per value-bearing information object, coded by the
// ASDU's type and stamped with the object's CP56 time tag when it has a
// valid one (zero otherwise: the consumer uses the capture time). A
// NaN or infinite value — a short float can carry one off the wire — is
// skipped: it would hold a series' mean at NaN for the rest of the run.
// command flags control-direction frames (setpoints), whose values are
// kept as separate series from telemetry. This is the one IEC 104
// extraction rule: the session reports its points, which the analyzer's
// store, the historian and the live IDS all read.
func AppendPoints(dst []protocol.Point, a *ASDU, command bool) []protocol.Point {
	for i := range a.Objects {
		obj := &a.Objects[i] // an InfoObject is ~130 bytes: do not copy it per element
		switch obj.Value.Kind {
		case KindFloat, KindNormalized, KindScaled, KindSingle,
			KindDouble, KindStep, KindCounter, KindCommand:
		default:
			continue
		}
		v := obj.Value.Float
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		p := protocol.Point{IOA: obj.IOA, Code: uint8(a.Type), V: v, Command: command}
		if obj.Value.HasTime && !obj.Value.Time.Invalid {
			p.T = obj.Value.Time.Time
		}
		dst = append(dst, p)
	}
	return dst
}

// scope is the protocol.Scope of one analyzer: the tolerant parser
// every flow of a station shares (a sender pins its dialect once, for
// all its connections), the parser's endpoint per sender address, one
// session per server/station pair, and the decode scratch every
// session's events point into.
type scope struct {
	apdu   APDU
	asdu   ASDU
	pts    []protocol.Point
	detail protocol.Detail
	addrs  [16]uint32 // detail.Addrs' array until a unit carries more
	parser TolerantParser

	eps      map[netip.Addr]EndpointID
	sessions map[[2]netip.Addr]*session
}

func newScope() *scope {
	sc := &scope{
		parser:   TolerantParser{ids: make(map[string]EndpointID)},
		eps:      make(map[netip.Addr]EndpointID),
		sessions: make(map[[2]netip.Addr]*session),
	}
	sc.detail.Addrs = sc.addrs[:0]
	return sc
}

func (sc *scope) Session(server, station netip.Addr) protocol.Session {
	k := [2]netip.Addr{server, station}
	s, ok := sc.sessions[k]
	if !ok {
		s = &session{sc: sc, ep: [2]EndpointID{sc.endpoint(server), sc.endpoint(station)}}
		sc.sessions[k] = s
	}
	return s
}

// endpoint resolves a sender to its slot in the parser's dialect cache.
func (sc *scope) endpoint(addr netip.Addr) EndpointID {
	id, ok := sc.eps[addr]
	if !ok {
		id = sc.parser.Endpoint(addr.String())
		sc.eps[addr] = id
	}
	return id
}

// session is the IEC 104 protocol.Session of one server/station pair:
// the two senders' slots in its scope's dialect cache, master first.
// It is the one place an IEC 104 frame is parsed.
type session struct {
	sc *scope
	ep [2]EndpointID
}

// Next frames one APDU and parses it as its sender's, reporting it
// with the Detail every IEC 104 event carries.
func (s *session) Next(buf []byte, fromStation bool) (protocol.Event, []byte, int, bool) {
	frame, rest, skipped, ok := framing.Next(buf)
	if !ok {
		return protocol.Event{}, rest, skipped, false
	}
	id := s.ep[0]
	if fromStation {
		id = s.ep[1]
	}
	sc := s.sc
	d := &sc.detail
	d.Unit = false
	tp := &sc.parser
	// The sender's standing before this frame decides the strict
	// verdict: once its dialect is pinned the verdict is a constant of
	// the dialect, and running the five-profile detection per frame
	// would dominate large-capture analysis for no information.
	prev, settled := tp.ProfileAt(id)
	if _, err := tp.ParseFrameAt(id, frame, &sc.apdu, &sc.asdu); err != nil {
		return protocol.Event{Err: err, Cause: causeOf(err), Detail: d}, rest, skipped, true
	}
	a := &sc.apdu
	if a.Format != FormatI {
		return protocol.Event{Token: a.Token(), Detail: d}, rest, skipped, true
	}
	d.Unit = true
	d.Type = uint8(a.ASDU.Type)
	d.Seq, d.NextSeq = a.SendSeq, (a.SendSeq+1)&0x7FFF
	if settled {
		d.StrictInvalid = !prev.IsStandard()
	} else {
		d.StrictInvalid = !tp.StrictPlausible(frame)
	}
	d.Settled = nil
	if p, ok := tp.ProfileAt(id); ok && (!settled || p != prev) {
		d.Settled = p
	}
	d.Addrs = d.Addrs[:0]
	for i := range a.ASDU.Objects {
		d.Addrs = append(d.Addrs, a.ASDU.Objects[i].IOA)
	}
	sc.pts = AppendPoints(sc.pts[:0], a.ASDU, !fromStation)
	return protocol.Event{Token: a.Token(), Points: sc.pts, Detail: d}, rest, skipped, true
}

func init() { protocol.Register(dialect{}) }
