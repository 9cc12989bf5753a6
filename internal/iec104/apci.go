package iec104

import (
	"errors"
	"fmt"
)

// StartByte opens every APCI. The standard fixes it at 0x68.
const StartByte = 0x68

// MaxAPDULen is the maximum value of the APCI length octet: the length
// of control field plus ASDU (everything after the length octet).
const MaxAPDULen = 253

// Format distinguishes the three APDU formats of IEC 104.
type Format uint8

// APDU formats.
const (
	FormatI Format = iota // numbered information transfer
	FormatS               // numbered supervisory (acknowledge)
	FormatU               // unnumbered control
)

func (f Format) String() string {
	switch f {
	case FormatI:
		return "I"
	case FormatS:
		return "S"
	case FormatU:
		return "U"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// UFunc identifies the six U-format control functions. The value equals
// the control field's first octet shifted right by two, which is also
// the numeric suffix the paper uses for its APDU tokens (U1 = STARTDT
// act ... U32 = TESTFR con).
type UFunc uint8

// U-format functions.
const (
	UStartDTAct UFunc = 1 << iota // STARTDT act: start transfer of I APDUs
	UStartDTCon                   // STARTDT con: acknowledgement
	UStopDTAct                    // STOPDT act: stop transfer of I APDUs
	UStopDTCon                    // STOPDT con: acknowledgement
	UTestFRAct                    // TESTFR act: keep-alive / test frame
	UTestFRCon                    // TESTFR con: acknowledgement
)

func (u UFunc) String() string {
	switch u {
	case UStartDTAct:
		return "STARTDT act"
	case UStartDTCon:
		return "STARTDT con"
	case UStopDTAct:
		return "STOPDT act"
	case UStopDTCon:
		return "STOPDT con"
	case UTestFRAct:
		return "TESTFR act"
	case UTestFRCon:
		return "TESTFR con"
	}
	return fmt.Sprintf("UFunc(%d)", uint8(u))
}

// APDU is one Application Protocol Data Unit: the APCI control
// information plus, for I-format frames, an ASDU payload.
type APDU struct {
	Format Format

	// SendSeq and RecvSeq are the 15-bit N(S) and N(R) sequence
	// numbers. SendSeq is meaningful only for I-format; RecvSeq for
	// I- and S-format.
	SendSeq uint16
	RecvSeq uint16

	// U is the control function of a U-format frame.
	U UFunc

	// ASDU carries the application payload of an I-format frame.
	ASDU *ASDU
}

// Parse errors.
var (
	ErrShortFrame   = errors.New("iec104: frame shorter than APCI")
	ErrBadStartByte = errors.New("iec104: missing 0x68 start byte")
	ErrBadLength    = errors.New("iec104: APCI length octet out of range or beyond buffer")
	ErrBadControl   = errors.New("iec104: malformed control field")
	ErrTrailing     = errors.New("iec104: trailing bytes after ASDU")
)

// Decode misses are built once, here and in asdu.go and time.go: the
// tolerant parser sweeps five candidate profiles over every frame of an
// endpoint it has not pinned, and most candidates miss, so an error
// formatted per miss was an allocation per candidate. Each still wraps
// the sentinel callers match with errors.Is; what they no longer carry
// is the offending value, which the frame in hand shows.
var (
	errSWithASDU = fmt.Errorf("%w: S-format APDU with ASDU bytes", ErrBadControl)
	errUWithASDU = fmt.Errorf("%w: U-format APDU with ASDU bytes", ErrBadControl)
	errUFunction = fmt.Errorf("%w: U control octet names no function", ErrBadControl)
	errUPadding  = fmt.Errorf("%w: nonzero U padding", ErrBadControl)
)

// EncodeAPCI writes the 6-octet APCI for the APDU header into dst, which
// must have room for 6 bytes. asduLen is the length of the ASDU that
// will follow (0 for S and U frames). It returns the total APDU length
// including the start and length octets.
func (a *APDU) EncodeAPCI(dst []byte, asduLen int) (int, error) {
	if len(dst) < 6 {
		return 0, ErrShortFrame
	}
	if asduLen < 0 || asduLen+4 > MaxAPDULen {
		return 0, fmt.Errorf("iec104: ASDU length %d overflows APCI length octet", asduLen)
	}
	dst[0] = StartByte
	dst[1] = byte(4 + asduLen)
	switch a.Format {
	case FormatI:
		dst[2] = byte(a.SendSeq<<1) & 0xFE
		dst[3] = byte(a.SendSeq >> 7)
		dst[4] = byte(a.RecvSeq<<1) & 0xFE
		dst[5] = byte(a.RecvSeq >> 7)
	case FormatS:
		dst[2] = 0x01
		dst[3] = 0
		dst[4] = byte(a.RecvSeq<<1) & 0xFE
		dst[5] = byte(a.RecvSeq >> 7)
	case FormatU:
		switch a.U {
		case UStartDTAct, UStartDTCon, UStopDTAct, UStopDTCon, UTestFRAct, UTestFRCon:
		default:
			return 0, fmt.Errorf("iec104: invalid U function %#x", uint8(a.U))
		}
		dst[2] = byte(a.U)<<2 | 0x03
		dst[3] = 0
		dst[4] = 0
		dst[5] = 0
	default:
		return 0, fmt.Errorf("iec104: invalid format %v", a.Format)
	}
	return 6 + asduLen, nil
}

// Marshal serializes the full APDU (APCI plus ASDU, if any) using the
// given profile for the ASDU field sizes.
func (a *APDU) Marshal(p Profile) ([]byte, error) {
	var asduBytes []byte
	if a.Format == FormatI {
		if a.ASDU == nil {
			return nil, errors.New("iec104: I-format APDU requires an ASDU")
		}
		var err error
		asduBytes, err = a.ASDU.Marshal(p)
		if err != nil {
			return nil, err
		}
	} else if a.ASDU != nil {
		return nil, fmt.Errorf("iec104: %v-format APDU must not carry an ASDU", a.Format)
	}
	buf := make([]byte, 6+len(asduBytes))
	if _, err := a.EncodeAPCI(buf, len(asduBytes)); err != nil {
		return nil, err
	}
	copy(buf[6:], asduBytes)
	return buf, nil
}

// ParseAPDU decodes a single APDU from the front of data using profile p
// and returns it together with the number of bytes consumed. The result
// owns all of its memory; hot paths should prefer ParseAPDUInto.
func ParseAPDU(data []byte, p Profile) (*APDU, int, error) {
	a := &APDU{}
	n, err := ParseAPDUInto(a, nil, data, p, false)
	if err != nil {
		return nil, 0, err
	}
	return a, n, nil
}

// ParseAPDUInto decodes a single APDU from the front of data into the
// caller-owned dst, returning the number of bytes consumed. For
// I-format frames the payload is decoded into scratch (reusing its
// Objects slice across calls) and dst.ASDU is pointed at it; for S/U
// frames dst.ASDU is nil. With alias true the decoded object Raw bytes
// alias data (see ParseASDUInto); either way the decoded APDU is only
// valid until dst/scratch are reused, which is what makes repeated calls
// with the same pair allocation-free.
func ParseAPDUInto(dst *APDU, scratch *ASDU, data []byte, p Profile, alias bool) (int, error) {
	if len(data) < 6 {
		return 0, ErrShortFrame
	}
	if data[0] != StartByte {
		return 0, ErrBadStartByte
	}
	apduLen := int(data[1])
	if apduLen < 4 || 2+apduLen > len(data) {
		return 0, ErrBadLength
	}
	total := 2 + apduLen
	cf := data[2:6]
	*dst = APDU{}
	a := dst
	switch {
	case cf[0]&0x01 == 0: // I format
		a.Format = FormatI
		a.SendSeq = uint16(cf[0])>>1 | uint16(cf[1])<<7
		a.RecvSeq = uint16(cf[2])>>1 | uint16(cf[3])<<7
		if scratch == nil {
			scratch = &ASDU{}
		}
		if err := ParseASDUInto(scratch, data[6:total], p, alias); err != nil {
			return 0, err
		}
		a.ASDU = scratch
	case cf[0]&0x03 == 0x01: // S format
		a.Format = FormatS
		if apduLen != 4 {
			return 0, errSWithASDU
		}
		a.RecvSeq = uint16(cf[2])>>1 | uint16(cf[3])<<7
	default: // U format (low two bits 11)
		a.Format = FormatU
		if apduLen != 4 {
			return 0, errUWithASDU
		}
		u := UFunc(cf[0] >> 2)
		switch u {
		case UStartDTAct, UStartDTCon, UStopDTAct, UStopDTCon, UTestFRAct, UTestFRCon:
			a.U = u
		default:
			return 0, errUFunction
		}
		if cf[1] != 0 || cf[2] != 0 || cf[3] != 0 {
			return 0, errUPadding
		}
	}
	return total, nil
}

// ParseAPDUs decodes every APDU packed into one TCP payload. IEC 104
// permits multiple APDUs per segment; the tap in the paper routinely
// captured such packets. On error it returns the APDUs decoded so far
// along with the error and the offset at which decoding failed.
func ParseAPDUs(data []byte, p Profile) ([]*APDU, int, error) {
	var out []*APDU
	off := 0
	for off < len(data) {
		a, n, err := ParseAPDU(data[off:], p)
		if err != nil {
			return out, off, err
		}
		out = append(out, a)
		off += n
	}
	return out, off, nil
}

// Token returns the paper's tokenisation of this APDU for N-gram /
// Markov-chain modelling (§6.3.1, Table 4): "S" for S-format, "U<n>"
// where n = control octet >> 2 for U-format, and "I<typeid>" for
// I-format frames.
func (a *APDU) Token() Token {
	switch a.Format {
	case FormatS:
		return TokenS
	case FormatU:
		return UToken(a.U)
	default:
		var t TypeID
		if a.ASDU != nil {
			t = a.ASDU.Type
		}
		return IToken(t)
	}
}

// NewS builds an S-format acknowledgement carrying recvSeq.
func NewS(recvSeq uint16) *APDU { return &APDU{Format: FormatS, RecvSeq: recvSeq} }

// NewU builds a U-format control frame.
func NewU(fn UFunc) *APDU { return &APDU{Format: FormatU, U: fn} }

// NewI builds an I-format frame around asdu with the given sequence
// numbers.
func NewI(sendSeq, recvSeq uint16, asdu *ASDU) *APDU {
	return &APDU{Format: FormatI, SendSeq: sendSeq, RecvSeq: recvSeq, ASDU: asdu}
}
