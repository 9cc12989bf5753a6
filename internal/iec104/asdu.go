package iec104

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ASDU parse errors.
var (
	ErrShortASDU       = errors.New("iec104: truncated ASDU")
	ErrUnsupportedType = errors.New("iec104: unsupported type identification")
	ErrObjectCount     = errors.New("iec104: object count does not match ASDU length")
	ErrNoObjects       = errors.New("iec104: ASDU carries zero information objects")

	errInvalidCause = errors.New("iec104: invalid cause of transmission")
	errVariableSize = errors.New("iec104: variable-size type must carry one object")
)

// ASDU is an Application Service Data Unit: the data unit identifier
// (type, variable structure qualifier, cause of transmission, common
// address) followed by one or more information objects.
type ASDU struct {
	Type TypeID
	// Sequence is the SQ bit of the variable structure qualifier.
	// When set, a single IOA is followed by a run of elements at
	// consecutive addresses.
	Sequence   bool
	COT        COT
	CommonAddr uint16
	Objects    []InfoObject
}

// Marshal serializes the ASDU using profile p. The number of objects
// must fit the 7-bit count of the variable structure qualifier.
func (a *ASDU) Marshal(p Profile) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(a.Objects) == 0 {
		return nil, ErrNoObjects
	}
	if len(a.Objects) > 127 {
		return nil, fmt.Errorf("iec104: %d objects exceed the 7-bit VSQ count", len(a.Objects))
	}
	if !Supported(a.Type) {
		return nil, fmt.Errorf("%w: %d", ErrUnsupportedType, uint8(a.Type))
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(a.Type))
	vsq := byte(len(a.Objects))
	if a.Sequence {
		vsq |= 0x80
	}
	buf = append(buf, vsq)
	var cot [2]byte
	n := a.COT.encode(cot[:], p.COTSize)
	buf = append(buf, cot[:n]...)
	if p.CommonAddrSize == 2 {
		buf = append(buf, byte(a.CommonAddr), byte(a.CommonAddr>>8))
	} else {
		if a.CommonAddr > 0xFF {
			return nil, fmt.Errorf("iec104: common address %d overflows 1 octet", a.CommonAddr)
		}
		buf = append(buf, byte(a.CommonAddr))
	}
	appendIOA := func(ioa uint32) error {
		if ioa > p.maxIOA() {
			return fmt.Errorf("iec104: IOA %d overflows %d octets", ioa, p.IOASize)
		}
		buf = append(buf, byte(ioa), byte(ioa>>8))
		if p.IOASize == 3 {
			buf = append(buf, byte(ioa>>16))
		}
		return nil
	}
	if a.Sequence {
		if err := appendIOA(a.Objects[0].IOA); err != nil {
			return nil, err
		}
		for i, obj := range a.Objects {
			if obj.IOA != a.Objects[0].IOA+uint32(i) {
				return nil, fmt.Errorf("iec104: sequence object %d has non-consecutive IOA %d", i, obj.IOA)
			}
			el, err := encodeElement(a.Type, obj.Value, obj.Raw)
			if err != nil {
				return nil, err
			}
			buf = append(buf, el...)
		}
	} else {
		for _, obj := range a.Objects {
			if err := appendIOA(obj.IOA); err != nil {
				return nil, err
			}
			el, err := encodeElement(a.Type, obj.Value, obj.Raw)
			if err != nil {
				return nil, err
			}
			buf = append(buf, el...)
		}
	}
	return buf, nil
}

// ParseASDU decodes an ASDU from data using profile p. The whole buffer
// must be consumed exactly; trailing or missing bytes are errors, which
// is what lets DetectProfile discriminate dialects. The result owns all
// of its memory (object Raw bytes are copied out of data).
func ParseASDU(data []byte, p Profile) (*ASDU, error) {
	a := &ASDU{}
	if err := ParseASDUInto(a, data, p, false); err != nil {
		return nil, err
	}
	return a, nil
}

// ParseASDUInto decodes an ASDU from data into dst, reusing dst's
// Objects slice (grown once to the working-set size, then reused across
// frames with zero allocation). When alias is true, object Raw slices
// alias data instead of being copied: the decoded ASDU is then only
// valid until data's buffer is reused, which is the contract the
// analyzer's scratch-parse hot path runs under. When alias is false the
// result owns all of its memory, like ParseASDU.
func ParseASDUInto(dst *ASDU, data []byte, p Profile, alias bool) error {
	if err := p.Validate(); err != nil {
		return err
	}
	duiLen := 2 + p.COTSize + p.CommonAddrSize
	if len(data) < duiLen {
		return ErrShortASDU
	}
	a := dst
	*a = ASDU{Type: TypeID(data[0]), Objects: dst.Objects[:0]}
	if !Supported(a.Type) {
		return ErrUnsupportedType
	}
	count := int(data[1] & 0x7F)
	a.Sequence = data[1]&0x80 != 0
	if count == 0 {
		return ErrNoObjects
	}
	var err error
	a.COT, err = decodeCOT(data[2:], p.COTSize)
	if err != nil {
		return err
	}
	if !a.COT.Cause.Valid() {
		return errInvalidCause
	}
	off := 2 + p.COTSize
	if p.CommonAddrSize == 2 {
		a.CommonAddr = binary.LittleEndian.Uint16(data[off:])
	} else {
		a.CommonAddr = uint16(data[off])
	}
	off += p.CommonAddrSize
	body := data[off:]

	rawBytes := func(b []byte) []byte {
		if alias {
			return b
		}
		return append([]byte(nil), b...)
	}

	elemSize, fixed := a.Type.ElementSize()
	if !fixed {
		// Variable-size types (file segments): retain raw bytes as a
		// single object. The length octet inside the element governs
		// its size; we keep the whole remainder.
		if a.Sequence || count != 1 {
			return errVariableSize
		}
		if len(body) < p.IOASize {
			return ErrShortASDU
		}
		a.Objects = append(a.Objects, InfoObject{
			IOA:   decodeIOA(body, p.IOASize),
			Value: Value{Kind: KindRaw},
			Raw:   rawBytes(body[p.IOASize:]),
		})
		return nil
	}

	var need int
	if a.Sequence {
		need = p.IOASize + count*elemSize
	} else {
		need = count * (p.IOASize + elemSize)
	}
	if len(body) != need {
		return ErrObjectCount
	}

	// object appends one decoded information object, written in place:
	// the slice is extended first (appending a literal would build the
	// object on the stack and copy it in).
	object := func(ioa uint32, el []byte) error {
		n := len(a.Objects)
		if n < cap(a.Objects) {
			a.Objects = a.Objects[:n+1]
		} else {
			a.Objects = append(a.Objects, InfoObject{})
		}
		obj := &a.Objects[n]
		obj.IOA = ioa
		if err := decodeElement(a.Type, el, &obj.Value); err != nil {
			return err
		}
		obj.Raw = rawBytes(el)
		return nil
	}
	if a.Sequence {
		base := decodeIOA(body, p.IOASize)
		pos := p.IOASize
		for i := 0; i < count; i++ {
			if err := object(base+uint32(i), body[pos:pos+elemSize]); err != nil {
				return err
			}
			pos += elemSize
		}
	} else {
		pos := 0
		for i := 0; i < count; i++ {
			ioa := decodeIOA(body[pos:], p.IOASize)
			pos += p.IOASize
			if err := object(ioa, body[pos:pos+elemSize]); err != nil {
				return err
			}
			pos += elemSize
		}
	}
	return nil
}

func decodeIOA(b []byte, size int) uint32 {
	ioa := uint32(b[0]) | uint32(b[1])<<8
	if size == 3 {
		ioa |= uint32(b[2]) << 16
	}
	return ioa
}

// NewMeasurement builds a single-object measurement ASDU of type t
// carrying value v at address ioa with the given cause.
func NewMeasurement(t TypeID, commonAddr uint16, ioa uint32, v Value, cause Cause) *ASDU {
	return &ASDU{
		Type:       t,
		COT:        COT{Cause: cause},
		CommonAddr: commonAddr,
		Objects:    []InfoObject{{IOA: ioa, Value: v}},
	}
}

// NewInterrogation builds a general interrogation command (C_IC_NA_1,
// the I100 token of the paper) for the given station.
func NewInterrogation(commonAddr uint16, cause Cause) *ASDU {
	return &ASDU{
		Type:       CIcNa,
		COT:        COT{Cause: cause},
		CommonAddr: commonAddr,
		Objects:    []InfoObject{{IOA: 0, Value: Value{Kind: KindQualifier, Bits: QOIStation}}},
	}
}

// NewSetpointFloat builds a short-float set point command (C_SE_NC_1,
// the I50 token: AGC setpoints in the paper's network).
func NewSetpointFloat(commonAddr uint16, ioa uint32, setpoint float64, cause Cause) *ASDU {
	return &ASDU{
		Type:       CSeNc,
		COT:        COT{Cause: cause},
		CommonAddr: commonAddr,
		Objects:    []InfoObject{{IOA: ioa, Value: Value{Kind: KindCommand, Float: setpoint}}},
	}
}
