package iec104

import "fmt"

// Cause is the cause of transmission (COT): "why" an ASDU is sent.
type Cause uint8

// Causes of transmission defined by IEC 60870-5-101 §7.2.3.
const (
	CausePeriodic     Cause = 1  // per/cyc: periodic, cyclic reporting
	CauseBackground   Cause = 2  // back: background scan
	CauseSpontaneous  Cause = 3  // spont: value crossed a configured threshold
	CauseInitialized  Cause = 4  // init: end of initialization
	CauseRequest      Cause = 5  // req: request or requested
	CauseActivation   Cause = 6  // act: command activation
	CauseActConfirm   Cause = 7  // actcon: activation confirmation
	CauseDeactivation Cause = 8  // deact
	CauseDeactConfirm Cause = 9  // deactcon
	CauseActTerm      Cause = 10 // actterm: activation termination
	CauseReturnRemote Cause = 11 // retrem
	CauseReturnLocal  Cause = 12 // retloc
	CauseFile         Cause = 13 // file transfer
	CauseInrogen      Cause = 20 // inrogen: interrogated by general interrogation
	// Causes 21-36 are interrogated by group 1-16.
	CauseReqCoGen Cause = 37 // reqcogen: requested by counter general request
	// Negative / error confirmations.
	CauseUnknownType  Cause = 44 // unknown type identification
	CauseUnknownCause Cause = 45 // unknown cause of transmission
	CauseUnknownCA    Cause = 46 // unknown common address of ASDU
	CauseUnknownIOA   Cause = 47 // unknown information object address
)

var causeNames = map[Cause]string{
	CausePeriodic:     "per/cyc",
	CauseBackground:   "back",
	CauseSpontaneous:  "spont",
	CauseInitialized:  "init",
	CauseRequest:      "req",
	CauseActivation:   "act",
	CauseActConfirm:   "actcon",
	CauseDeactivation: "deact",
	CauseDeactConfirm: "deactcon",
	CauseActTerm:      "actterm",
	CauseReturnRemote: "retrem",
	CauseReturnLocal:  "retloc",
	CauseFile:         "file",
	CauseInrogen:      "inrogen",
	CauseReqCoGen:     "reqcogen",
	CauseUnknownType:  "unknown-type",
	CauseUnknownCause: "unknown-cause",
	CauseUnknownCA:    "unknown-ca",
	CauseUnknownIOA:   "unknown-ioa",
}

// causeIndex is causeNames laid out by cause value (the field is six
// bits wide), built once: Valid runs per ASDU and indexes it instead of
// hashing. An empty name means the map has no entry.
var causeIndex = func() (idx [64]string) {
	for c, name := range causeNames {
		idx[c] = name
	}
	return idx
}()

func (c Cause) String() string {
	if c < 64 && causeIndex[c] != "" {
		return causeIndex[c]
	}
	if c >= 21 && c <= 36 {
		return fmt.Sprintf("inro%d", c-20)
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Valid reports whether c is a cause value defined by the standard.
func (c Cause) Valid() bool {
	return c < 64 && causeIndex[c] != "" || c >= 21 && c <= 36
}

// COT is the full cause-of-transmission field. In IEC 104 it occupies
// two octets: the cause (6 bits) with the P/N and T flags, followed by
// the originator address. The legacy IEC 101 encoding the paper found
// in the wild omits the originator octet.
type COT struct {
	Cause    Cause
	Negative bool  // P/N bit: negative confirmation
	Test     bool  // T bit: test transmission
	Orig     uint8 // originator address (absent in the 1-octet legacy form)
}

// encode writes the COT using size octets (1 or 2) and returns the
// bytes written.
func (c COT) encode(dst []byte, size int) int {
	b := uint8(c.Cause) & 0x3F
	if c.Negative {
		b |= 0x40
	}
	if c.Test {
		b |= 0x80
	}
	dst[0] = b
	if size == 2 {
		dst[1] = c.Orig
		return 2
	}
	return 1
}

func decodeCOT(b []byte, size int) (COT, error) {
	if len(b) < size {
		return COT{}, ErrShortASDU
	}
	c := COT{
		Cause:    Cause(b[0] & 0x3F),
		Negative: b[0]&0x40 != 0,
		Test:     b[0]&0x80 != 0,
	}
	if size == 2 {
		c.Orig = b[1]
	}
	return c, nil
}
