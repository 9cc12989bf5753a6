// Package protocol defines the dialect-neutral contract of the
// analysis core: a Token alphabet for Markov/N-gram profiling, a Point
// measurement record for the physical/historian layers, and a Dialect
// interface + registry that the iec104, c37118 and modbus packages
// implement. The core analyzer routes TCP streams to registered
// dialects by port (or by content sniffing on mixed captures) and
// accumulates their tokens, measurements and compliance findings
// without knowing any wire format.
//
// The package sits below every codec: it imports nothing from them, so
// the token grammar and the registry are safe to use from any layer
// (core, drift, markov, ids) without import cycles.
package protocol

import (
	"net/netip"
	"time"
)

// ID names a registered dialect. IEC104 is the zero value: a
// zero-valued Token is an IEC 104 token, which is what keeps the
// pre-multi-protocol serialized forms byte-identical.
type ID uint8

// Registered dialect identifiers.
const (
	// IEC104 is IEC 60870-5-104 (TCP port 2404).
	IEC104 ID = iota
	// C37118 is IEEE C37.118 synchrophasor data transfer (TCP port 4712).
	C37118
	// Modbus is Modbus/TCP (MBAP framing, TCP port 502).
	Modbus

	numIDs
)

// Default is the dialect an analyzer decodes from the start, the
// paper's own; the others are enabled by name or by auto-detection.
const Default = IEC104

// String returns the canonical lowercase dialect name.
func (id ID) String() string {
	switch id {
	case IEC104:
		return "iec104"
	case C37118:
		return "c37118"
	case Modbus:
		return "modbus"
	}
	return "proto?"
}

// ParseID resolves a dialect name (as printed by ID.String).
func ParseID(s string) (ID, bool) {
	switch s {
	case "iec104":
		return IEC104, true
	case "c37118":
		return C37118, true
	case "modbus":
		return Modbus, true
	}
	return 0, false
}

// C37.118 point codes: the Code values a C37.118 session emits in its
// Points. Phasor channels report their magnitude; frequency and ROCOF
// are per-PMU scalars.
const (
	C37PointFreq   uint8 = 1
	C37PointROCOF  uint8 = 2
	C37PointPhasor uint8 = 3
)

// Point is one measurement extracted from an application frame — the
// dialect-neutral record the physical store and the historian ingest.
type Point struct {
	// IOA is the dialect-local point address: the IEC 104 information
	// object address, a C37.118 channel index, a Modbus register
	// address.
	IOA uint32
	// Code is the dialect-local value type: an IEC 104 TypeID, a
	// C37.118 channel kind, a Modbus function code.
	Code uint8
	// T is the sample timestamp; the zero value means "use the capture
	// timestamp".
	T time.Time
	// V is the sample value.
	V float64
	// Command flags control-direction values (commands, setpoints,
	// register writes), stored as separate series from telemetry.
	Command bool
}

// Event is one decoded application frame. Token and Points are scratch
// state owned by the Session: they are valid only until the next Next
// call, so consumers must copy what they keep.
type Event struct {
	// Token is the frame's Markov-alphabet token.
	Token Token
	// Points holds the frame's extracted measurements (often empty).
	Points []Point
	// Err, when non-nil, marks a consumed-but-undecodable frame: the
	// framing layer recognised and skipped it, but it yields no token
	// and no points. Callers count it as a parse error.
	Err error
	// Cause labels Err for the malformed-frame breakdown with a stable
	// snake_case word ("short_asdu", "bad_length"); empty reads as
	// "other".
	Cause string
	// Detail is what the dialect reports of the frame beyond its token,
	// or nil when it reports nothing more. Scratch like Points.
	Detail *Detail
}

// Detail is what a dialect with typed, numbered data units and a
// per-sender encoding audit reports of a frame: IEC 104, whose tolerant
// parser settles each sender's legacy field sizes (§6.1). A dialect
// that sets Detail sets it on every event, parse errors included: the
// analyzer keeps a compliance row per sending station of such a dialect
// and counts every frame on it.
type Detail struct {
	// Unit marks a data unit (an IEC 104 I-frame). The fields below
	// describe it, and mean nothing when Unit is false.
	Unit bool
	// Type is the unit's type identification (an IEC 104 ASDU TypeID).
	Type uint8
	// Addrs lists the address of every object the unit carries,
	// value-bearing or not.
	Addrs []uint32
	// Seq is the unit's send sequence number and NextSeq the one the
	// sender's next unit must carry.
	Seq, NextSeq uint16
	// StrictInvalid reports that a parser holding to the standard's
	// encoding rejects or misreads the unit.
	StrictInvalid bool
	// Settled is the sender's encoding when the tolerant parser settled
	// it with this unit, first or anew; nil when the unit left it as it
	// was.
	Settled Encoding
}

// Encoding is a sender's wire encoding as a dialect's tolerant parser
// settled it (an iec104.Profile).
type Encoding interface {
	String() string
	// IsStandard reports whether the encoding is the standard's own.
	IsStandard() bool
}

// Session is the decode state of one dialect's flow: whatever
// cross-direction pairing the dialect needs (Modbus transaction IDs,
// C37.118 per-IDCode config frames) or, for a Scoped dialect, what it
// learned of the flow's server/station pair. The caller keeps each
// direction's framing buffer. Sessions are not goroutine-safe; the
// sharded engine keeps both directions of a flow on one shard.
type Session interface {
	// Next cuts the next frame from buf, the reassembled byte stream
	// of one direction, with its dialect's Framing.Next and decodes it;
	// fromStation reports whether the bytes flow station->master.
	// Besides the event it returns what Framing.Next does: the tail
	// (which may alias buf), the bytes skipped resynchronising, and
	// ok=false only when more bytes are needed (the caller keeps rest
	// and calls again after the next segment).
	//
	// The returned Event is scratch: valid until the next call.
	Next(buf []byte, fromStation bool) (ev Event, rest []byte, skipped int, ok bool)
}

// Scoped is an optional Dialect extension for a dialect that learns
// per station across flows: IEC 104's tolerant parser pins each
// sender's field sizes once for all its connections. An analyzer opens
// one Scope per such dialect and takes every flow's session from it.
type Scoped interface {
	NewScope() Scope
}

// Scope hands out the sessions of one analyzer's flows. Its sessions
// share state, so a scope and its sessions belong to one goroutine.
type Scope interface {
	// Session returns the session of a server/station pair: the same
	// one for every flow between them, so opening a flow allocates no
	// session once the pair is known.
	Session(server, station netip.Addr) Session
}

// ComplianceReporter is an optional Session extension: dialects with a
// per-stream compliance story (C37.118 data-rate conformance) report it
// when the analyzer snapshots.
type ComplianceReporter interface {
	Compliance() []StreamCompliance
}

// StreamCompliance is one stream's dialect-compliance verdict — the
// multi-protocol analogue of the per-station IEC 104 StationCompliance.
type StreamCompliance struct {
	Proto ID
	// Conn labels the server-outstation relationship the stream rides.
	Conn string
	// Unit is the dialect-local unit within the stream: a C37.118 PMU
	// IDCode, a Modbus unit identifier.
	Unit string
	// ConfiguredRate / ObservedRate are frames per second: what the
	// stream's configuration declares vs what the tap saw (zero when
	// the dialect has no configured rate).
	ConfiguredRate float64
	ObservedRate   float64
	Frames         int
	Errors         int
	Compliant      bool
	Detail         string
}

// Dialect is one registered protocol: identification (port and content
// sniff) plus a Session factory.
type Dialect interface {
	ID() ID
	Name() string
	// Port is the dialect's registered TCP server port (0 = none).
	Port() uint16
	// StationInitiates reports whether the measurement-owning device
	// dials out (C37.118 PMUs stream to a listening collector) rather
	// than listening (IEC 104 outstations, Modbus servers). The
	// analyzer uses it to orient station vs master.
	StationInitiates() bool
	// Sniff reports whether b plausibly begins one of this dialect's
	// frames — the auto-detect heuristic for traffic on unregistered
	// ports: the Framing's Plausible, and whatever more the dialect
	// checks. It must be cheap and must not retain b.
	Sniff(b []byte) bool
	// Framing is the head rule the dialect's sessions frame through.
	Framing() *Framing
	NewSession() Session
}

// dialects is the registry, indexed by ID. Registration happens in
// package init functions only, so no locking is needed.
var dialects [numIDs]Dialect

// Register installs a dialect. Call from an init function; registering
// two dialects with one ID panics (a wiring bug, not a runtime state).
func Register(d Dialect) {
	id := d.ID()
	if int(id) >= len(dialects) {
		panic("protocol: register: ID out of range")
	}
	if dialects[id] != nil {
		panic("protocol: duplicate registration for " + id.String())
	}
	dialects[id] = d
}

// Get returns the dialect registered under id, or nil.
func Get(id ID) Dialect {
	if int(id) >= len(dialects) {
		return nil
	}
	return dialects[id]
}

// ByName resolves a registered dialect by its canonical name.
func ByName(name string) Dialect {
	id, ok := ParseID(name)
	if !ok {
		return nil
	}
	return Get(id)
}

// ByPort returns the registered dialect owning a TCP port, or nil.
func ByPort(port uint16) Dialect {
	if port == 0 {
		return nil
	}
	for _, d := range dialects {
		if d != nil && d.Port() == port {
			return d
		}
	}
	return nil
}

// Detect content-sniffs a payload against every registered dialect, in
// ID order, and returns the first claimant (or nil). Used for
// auto-detection on ports no dialect owns.
func Detect(payload []byte) Dialect {
	for _, d := range dialects {
		if d != nil && d.Sniff(payload) {
			return d
		}
	}
	return nil
}

// All returns the registered dialects in ID order.
func All() []Dialect {
	out := make([]Dialect, 0, len(dialects))
	for _, d := range dialects {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}
