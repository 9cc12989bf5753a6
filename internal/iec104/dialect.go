package iec104

import (
	"math"

	"uncharted/internal/protocol"
)

// NextFrame extracts one APDU from the front of buf. It resynchronises
// on the 0x68 start byte if leading garbage is present; skipped reports
// how many bytes were discarded doing so (including a false start byte
// on a corrupt length octet). This is the dialect-owned garbage-skip:
// the core analyzer and the generic protocol.Session both frame
// through it, so resync behaviour cannot drift between the two paths.
func NextFrame(buf []byte) (frame, rest []byte, skipped int, ok bool) {
	// Drop bytes until a start byte.
	i := 0
	for i < len(buf) && buf[i] != StartByte {
		i++
	}
	buf = buf[i:]
	if len(buf) < 2 {
		return nil, buf, i, false
	}
	total := 2 + int(buf[1])
	if int(buf[1]) < 4 {
		// Corrupt length; skip the false start byte.
		return nil, buf[1:], i + 1, false
	}
	if len(buf) < total {
		return nil, buf, i, false
	}
	return buf[:total], buf[total:], i, true
}

// dialect implements protocol.Dialect for IEC 60870-5-104.
type dialect struct{}

func (dialect) ID() protocol.ID        { return protocol.IEC104 }
func (dialect) Name() string           { return "iec104" }
func (dialect) Port() uint16           { return 2404 }
func (dialect) StationInitiates() bool { return false }
func (dialect) NewSession() protocol.Session {
	return &session{parser: NewTolerantParser()}
}

// Sniff accepts a plausible APDU head: the 0x68 start byte followed by
// a legal length octet.
func (dialect) Sniff(b []byte) bool {
	return len(b) >= 2 && b[0] == StartByte && b[1] >= 4
}

// AppendPoints appends the measurements an ASDU carries to dst: one
// protocol.Point per value-bearing information object, coded by the
// ASDU's type and stamped with the object's CP56 time tag when it has a
// valid one (zero otherwise: the consumer uses the capture time). A
// NaN or infinite value — a short float can carry one off the wire — is
// skipped: it would hold a series' mean at NaN for the rest of the run.
// command flags control-direction frames (setpoints), whose values are
// kept as separate series from telemetry. This is the one IEC 104
// extraction rule: the analyzer's store, the historian and the live
// IDS all read its points.
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

// session is the per-flow protocol.Session. The core analyzer keeps
// its own specialised IEC 104 path (shared tolerant-parser dialect
// cache, compliance bookkeeping); this session serves the generic
// registry consumers — iec104dump's shared decode, mixed-capture
// tooling — with the same framing, tolerant parsing and point
// extraction.
type session struct {
	parser *TolerantParser
	apdu   APDU
	asdu   ASDU
	pts    []protocol.Point
}

func (s *session) Next(buf []byte, fromStation bool) (protocol.Event, []byte, int, bool) {
	frame, rest, skipped, ok := NextFrame(buf)
	if !ok {
		return protocol.Event{}, rest, skipped, false
	}
	// The tolerant parser pins a dialect per endpoint key; within one
	// flow the two directions are the two endpoints.
	key := "master"
	if fromStation {
		key = "station"
	}
	if _, err := s.parser.ParseFrameInto(key, frame, &s.apdu, &s.asdu); err != nil {
		return protocol.Event{Err: err}, rest, skipped, true
	}
	ev := protocol.Event{Token: s.apdu.Token()}
	if s.apdu.Format == FormatI && s.apdu.ASDU != nil {
		s.pts = AppendPoints(s.pts[:0], s.apdu.ASDU, !fromStation)
		ev.Points = s.pts
	}
	return ev, rest, skipped, true
}

func init() { protocol.Register(dialect{}) }
