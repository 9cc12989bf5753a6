package iec104

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Quality holds the quality descriptor bits shared by SIQ, DIQ and QDS.
type Quality struct {
	Overflow    bool // OV: value beyond measuring range
	Blocked     bool // BL: value blocked for transmission
	Substituted bool // SB: value set by hand
	NotTopical  bool // NT: value not refreshed recently
	Invalid     bool // IV: value unusable
}

func (q Quality) qdsByte() byte {
	var b byte
	if q.Overflow {
		b |= 0x01
	}
	if q.Blocked {
		b |= 0x10
	}
	if q.Substituted {
		b |= 0x20
	}
	if q.NotTopical {
		b |= 0x40
	}
	if q.Invalid {
		b |= 0x80
	}
	return b
}

func qualityFromByte(b byte) Quality {
	return Quality{
		Overflow:    b&0x01 != 0,
		Blocked:     b&0x10 != 0,
		Substituted: b&0x20 != 0,
		NotTopical:  b&0x40 != 0,
		Invalid:     b&0x80 != 0,
	}
}

// Good reports whether no quality flag is raised.
func (q Quality) Good() bool { return q == Quality{} }

// ValueKind says which fields of a Value are meaningful.
type ValueKind uint8

// Value kinds.
const (
	KindNone       ValueKind = iota // no information element (e.g. C_RD_NA_1)
	KindSingle                      // single-point status (Bits: 0/1)
	KindDouble                      // double-point status (Bits: 0..3)
	KindStep                        // step position (Float: -64..63, Transient flag in Bits bit 8)
	KindBitstring                   // 32-bit bitstring (Bits)
	KindNormalized                  // normalized measured value (Float: -1..+1)
	KindScaled                      // scaled measured value (Float: -32768..32767)
	KindFloat                       // IEEE 754 short float (Float)
	KindCounter                     // integrated total (Bits = count, Float mirrors it)
	KindCommand                     // command qualifier (Bits holds raw octet; Float the setpoint if any)
	KindQualifier                   // single qualifier octet (QOI/COI/QCC/QRP/...) in Bits
	KindRaw                         // undecoded element bytes retained in Raw only
)

// Value is the decoded information element of one information object.
// It is deliberately flat: the measurement pipeline consumes floats,
// status bits and time tags, and a flat struct keeps parsing
// allocation-free beyond the containing slice.
type Value struct {
	Kind    ValueKind
	Float   float64
	Bits    uint32
	Quality Quality
	HasTime bool
	Time    CP56Time2a
}

// InfoObject is one information object: an address plus its element.
type InfoObject struct {
	IOA   uint32
	Value Value
	// Raw keeps the undecoded element bytes (excluding the IOA) so
	// unsupported or variable-length types round-trip losslessly.
	Raw []byte
}

// decodeElement decodes one information element of type t from b into
// v — in place, so an object is written once, where it will live. On
// error v is partly filled.
func decodeElement(t TypeID, b []byte, v *Value) error {
	*v = Value{}
	v.Kind = KindRaw
	need, fixed := t.ElementSize()
	if fixed && len(b) < need {
		return fmt.Errorf("iec104: %v element truncated: need %d bytes, have %d", t, need, len(b))
	}
	timeAt := func(off int) error {
		ct, err := DecodeCP56Time2a(b[off:])
		if err != nil {
			return err
		}
		v.HasTime = true
		v.Time = ct
		return nil
	}
	switch t {
	case MSpNa, MSpTb:
		v.Kind = KindSingle
		v.Bits = uint32(b[0] & 0x01)
		v.Quality = qualityFromByte(b[0] & 0xF0)
		v.Float = float64(v.Bits)
		if t == MSpTb {
			if err := timeAt(1); err != nil {
				return err
			}
		}
	case MDpNa, MDpTb:
		v.Kind = KindDouble
		v.Bits = uint32(b[0] & 0x03)
		v.Quality = qualityFromByte(b[0] & 0xF0)
		v.Float = float64(v.Bits)
		if t == MDpTb {
			if err := timeAt(1); err != nil {
				return err
			}
		}
	case MStNa, MStTb:
		v.Kind = KindStep
		raw := b[0]
		val := int8(raw<<1) >> 1 // sign-extend the 7-bit value
		v.Float = float64(val)
		if raw&0x80 != 0 {
			v.Bits |= 1 << 8 // transient
		}
		v.Quality = qualityFromByte(b[1])
		if t == MStTb {
			if err := timeAt(2); err != nil {
				return err
			}
		}
	case MBoNa, MBoTb:
		v.Kind = KindBitstring
		v.Bits = binary.LittleEndian.Uint32(b)
		v.Quality = qualityFromByte(b[4])
		if t == MBoTb {
			if err := timeAt(5); err != nil {
				return err
			}
		}
	case MMeNa, MMeTd, MMeNd:
		v.Kind = KindNormalized
		v.Float = float64(int16(binary.LittleEndian.Uint16(b))) / 32768
		switch t {
		case MMeNa:
			v.Quality = qualityFromByte(b[2])
		case MMeTd:
			v.Quality = qualityFromByte(b[2])
			if err := timeAt(3); err != nil {
				return err
			}
		}
	case MMeNb, MMeTe:
		v.Kind = KindScaled
		v.Float = float64(int16(binary.LittleEndian.Uint16(b)))
		v.Quality = qualityFromByte(b[2])
		if t == MMeTe {
			if err := timeAt(3); err != nil {
				return err
			}
		}
	case MMeNc, MMeTf:
		v.Kind = KindFloat
		v.Float = float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
		v.Quality = qualityFromByte(b[4])
		if t == MMeTf {
			if err := timeAt(5); err != nil {
				return err
			}
		}
	case MItNa, MItTb:
		v.Kind = KindCounter
		v.Bits = binary.LittleEndian.Uint32(b)
		v.Float = float64(int32(v.Bits))
		// b[4] is the sequence/carry/adjust octet; keep IV in quality.
		v.Quality.Invalid = b[4]&0x80 != 0
		if t == MItTb {
			if err := timeAt(5); err != nil {
				return err
			}
		}
	case MPsNa:
		v.Kind = KindBitstring
		v.Bits = binary.LittleEndian.Uint32(b)
		v.Quality = qualityFromByte(b[4])
	case CScNa, CDcNa, CRcNa, CScTa, CDcTa, CRcTa:
		v.Kind = KindCommand
		v.Bits = uint32(b[0])
		v.Float = float64(b[0] & 0x03)
		if t.HasTimeTag() {
			if err := timeAt(1); err != nil {
				return err
			}
		}
	case CSeNa, CSeTa:
		v.Kind = KindCommand
		v.Float = float64(int16(binary.LittleEndian.Uint16(b))) / 32768
		v.Bits = uint32(b[2])
		if t == CSeTa {
			if err := timeAt(3); err != nil {
				return err
			}
		}
	case CSeNb, CSeTb:
		v.Kind = KindCommand
		v.Float = float64(int16(binary.LittleEndian.Uint16(b)))
		v.Bits = uint32(b[2])
		if t == CSeTb {
			if err := timeAt(3); err != nil {
				return err
			}
		}
	case CSeNc, CSeTc:
		v.Kind = KindCommand
		v.Float = float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
		v.Bits = uint32(b[4])
		if t == CSeTc {
			if err := timeAt(5); err != nil {
				return err
			}
		}
	case CBoNa, CBoTa:
		v.Kind = KindBitstring
		v.Bits = binary.LittleEndian.Uint32(b)
		if t == CBoTa {
			if err := timeAt(4); err != nil {
				return err
			}
		}
	case MEiNa, CIcNa, CCiNa, CRpNa, PAcNa:
		v.Kind = KindQualifier
		v.Bits = uint32(b[0])
	case CRdNa:
		v.Kind = KindNone
	case CCsNa:
		v.Kind = KindNone
		if err := timeAt(0); err != nil {
			return err
		}
	case CTsTa:
		v.Kind = KindBitstring
		v.Bits = uint32(binary.LittleEndian.Uint16(b))
		if err := timeAt(2); err != nil {
			return err
		}
	case PMeNa, PMeNb:
		v.Kind = KindCommand
		v.Float = float64(int16(binary.LittleEndian.Uint16(b)))
		if t == PMeNa {
			v.Float /= 32768
		}
		v.Bits = uint32(b[2])
	case PMeNc:
		v.Kind = KindCommand
		v.Float = float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
		v.Bits = uint32(b[4])
	default:
		// File-transfer and remaining types: keep raw bytes only.
		v.Kind = KindRaw
	}
	return nil
}

// encodeElement renders v for type t. For KindRaw values the raw bytes
// are written verbatim.
func encodeElement(t TypeID, v Value, raw []byte) ([]byte, error) {
	size, fixed := t.ElementSize()
	if !fixed || v.Kind == KindRaw {
		return raw, nil
	}
	b := make([]byte, size)
	putTime := func(off int) {
		EncodeCP56Time2a(b[off:], v.Time)
	}
	switch t {
	case MSpNa, MSpTb:
		b[0] = byte(v.Bits&0x01) | v.Quality.qdsByte()&0xF0
		if t == MSpTb {
			putTime(1)
		}
	case MDpNa, MDpTb:
		b[0] = byte(v.Bits&0x03) | v.Quality.qdsByte()&0xF0
		if t == MDpTb {
			putTime(1)
		}
	case MStNa, MStTb:
		b[0] = byte(int8(v.Float)) & 0x7F
		if v.Bits&(1<<8) != 0 {
			b[0] |= 0x80
		}
		b[1] = v.Quality.qdsByte()
		if t == MStTb {
			putTime(2)
		}
	case MBoNa, MBoTb:
		binary.LittleEndian.PutUint32(b, v.Bits)
		b[4] = v.Quality.qdsByte()
		if t == MBoTb {
			putTime(5)
		}
	case MMeNa, MMeTd, MMeNd:
		binary.LittleEndian.PutUint16(b, uint16(int16(clampNVA(v.Float)*32768)))
		switch t {
		case MMeNa:
			b[2] = v.Quality.qdsByte()
		case MMeTd:
			b[2] = v.Quality.qdsByte()
			putTime(3)
		}
	case MMeNb, MMeTe:
		binary.LittleEndian.PutUint16(b, uint16(int16(v.Float)))
		b[2] = v.Quality.qdsByte()
		if t == MMeTe {
			putTime(3)
		}
	case MMeNc, MMeTf:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v.Float)))
		b[4] = v.Quality.qdsByte()
		if t == MMeTf {
			putTime(5)
		}
	case MItNa, MItTb:
		binary.LittleEndian.PutUint32(b, v.Bits)
		if v.Quality.Invalid {
			b[4] |= 0x80
		}
		if t == MItTb {
			putTime(5)
		}
	case MPsNa:
		binary.LittleEndian.PutUint32(b, v.Bits)
		b[4] = v.Quality.qdsByte()
	case CScNa, CDcNa, CRcNa, CScTa, CDcTa, CRcTa:
		b[0] = byte(v.Bits)
		if t.HasTimeTag() {
			putTime(1)
		}
	case CSeNa, CSeTa:
		binary.LittleEndian.PutUint16(b, uint16(int16(clampNVA(v.Float)*32768)))
		b[2] = byte(v.Bits)
		if t == CSeTa {
			putTime(3)
		}
	case CSeNb, CSeTb:
		binary.LittleEndian.PutUint16(b, uint16(int16(v.Float)))
		b[2] = byte(v.Bits)
		if t == CSeTb {
			putTime(3)
		}
	case CSeNc, CSeTc:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v.Float)))
		b[4] = byte(v.Bits)
		if t == CSeTc {
			putTime(5)
		}
	case CBoNa, CBoTa:
		binary.LittleEndian.PutUint32(b, v.Bits)
		if t == CBoTa {
			putTime(4)
		}
	case MEiNa, CIcNa, CCiNa, CRpNa, PAcNa:
		b[0] = byte(v.Bits)
	case CRdNa:
		// zero-length element
	case CCsNa:
		putTime(0)
	case CTsTa:
		binary.LittleEndian.PutUint16(b, uint16(v.Bits))
		putTime(2)
	case PMeNa, PMeNb:
		f := v.Float
		if t == PMeNa {
			f = clampNVA(f) * 32768
		}
		binary.LittleEndian.PutUint16(b, uint16(int16(f)))
		b[2] = byte(v.Bits)
	case PMeNc:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v.Float)))
		b[4] = byte(v.Bits)
	default:
		return nil, fmt.Errorf("iec104: cannot encode elements of type %v from a Value; supply Raw bytes", t)
	}
	return b, nil
}

// clampNVA keeps a normalized value inside the representable range
// [-1, 1-2^-15].
func clampNVA(f float64) float64 {
	const max = 1 - 1.0/32768
	if f > max {
		return max
	}
	if f < -1 {
		return -1
	}
	return f
}

// QOIStation is the qualifier of a (general) station interrogation.
const QOIStation = 20

// Double-point status values. The paper's Fig. 20 shows a breaker
// status changing from 0 to 2; IEC 104 double points encode
// intermediate (0), off (1), on (2) and indeterminate (3).
const (
	DoubleIntermediate = 0
	DoubleOff          = 1
	DoubleOn           = 2
	DoubleBad          = 3
)
