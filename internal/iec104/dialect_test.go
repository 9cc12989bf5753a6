package iec104

import (
	"math"
	"reflect"
	"testing"
	"time"

	"uncharted/internal/protocol"
)

// TestAppendPoints pins the one IEC 104 extraction rule: which objects
// carry a sample, which time a sample takes, that non-finite values
// are dropped and that the command flag and type ride on every point.
func TestAppendPoints(t *testing.T) {
	tag := time.Date(2019, 3, 20, 8, 0, 1, 500e6, time.UTC)
	obj := func(ioa uint32, kind ValueKind, v float64) InfoObject {
		return InfoObject{IOA: ioa, Value: Value{Kind: kind, Float: v}}
	}
	timed := func(o InfoObject, invalid bool) InfoObject {
		o.Value.HasTime = true
		o.Value.Time = CP56Time2a{Time: tag, Invalid: invalid}
		return o
	}
	cases := []struct {
		name    string
		typ     TypeID
		objs    []InfoObject
		command bool
		want    []protocol.Point
	}{
		{"value-bearing kinds", MMeNc, []InfoObject{
			obj(1, KindFloat, 59.9), obj(2, KindNormalized, -0.5), obj(3, KindScaled, 120),
			obj(4, KindSingle, 1), obj(5, KindDouble, 2), obj(6, KindStep, -3), obj(7, KindCounter, 42),
		}, false, []protocol.Point{
			{IOA: 1, Code: uint8(MMeNc), V: 59.9}, {IOA: 2, Code: uint8(MMeNc), V: -0.5},
			{IOA: 3, Code: uint8(MMeNc), V: 120}, {IOA: 4, Code: uint8(MMeNc), V: 1},
			{IOA: 5, Code: uint8(MMeNc), V: 2}, {IOA: 6, Code: uint8(MMeNc), V: -3},
			{IOA: 7, Code: uint8(MMeNc), V: 42},
		}},
		{"non-value kinds", MBoNa, []InfoObject{
			obj(1, KindNone, 0), obj(2, KindBitstring, 0), obj(3, KindQualifier, 20), obj(4, KindRaw, 0),
		}, false, nil},
		{"valid time tag", MMeTf, []InfoObject{timed(obj(9, KindFloat, 1), false)}, false,
			[]protocol.Point{{IOA: 9, Code: uint8(MMeTf), V: 1, T: tag}}},
		{"invalid time tag", MMeTf, []InfoObject{timed(obj(9, KindFloat, 1), true)}, false,
			[]protocol.Point{{IOA: 9, Code: uint8(MMeTf), V: 1}}},
		{"absent time tag", MMeNc, []InfoObject{obj(9, KindFloat, 1)}, false,
			[]protocol.Point{{IOA: 9, Code: uint8(MMeNc), V: 1}}},
		{"non-finite values", MMeNc, []InfoObject{
			obj(1, KindFloat, math.NaN()), obj(2, KindFloat, math.Inf(1)), obj(3, KindFloat, math.Inf(-1)), obj(4, KindFloat, 7),
		}, false, []protocol.Point{{IOA: 4, Code: uint8(MMeNc), V: 7}}},
		{"command", CSeNc, []InfoObject{obj(2001, KindCommand, 412.5)}, true,
			[]protocol.Point{{IOA: 2001, Code: uint8(CSeNc), V: 412.5, Command: true}}},
		{"command without a value", CIcNa, []InfoObject{obj(0, KindQualifier, 20)}, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &ASDU{Type: tc.typ, Objects: tc.objs}
			if got := AppendPoints(nil, a, tc.command); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("AppendPoints = %+v, want %+v", got, tc.want)
			}
			// Appending keeps what dst already holds.
			head := protocol.Point{IOA: 99, V: 1}
			if got := AppendPoints([]protocol.Point{head}, a, tc.command); got[0] != head || len(got) != 1+len(tc.want) {
				t.Errorf("AppendPoints onto one point = %+v", got)
			}
		})
	}
}

// TestSniff: auto-detection claims a flow for IEC 104 only on an APCI
// the codec's control-field decode accepts — a 4-octet S or U frame
// naming one function, or an I frame with room for an ASDU header — so
// a Modbus header that happens to begin with 0x68 is not claimed.
func TestSniff(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		want bool
	}{
		{"STARTDT act", []byte{0x68, 0x04, 0x07, 0x00, 0x00, 0x00}, true},
		{"S frame", []byte{0x68, 0x04, 0x01, 0x00, 0x02, 0x00}, true},
		{"I frame", []byte{0x68, 0x0e, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x01, 0x03, 0x00}, true},
		{"U frame naming two functions", []byte{0x68, 0x04, 0x0f, 0x00, 0x00, 0x00}, false},
		{"U frame with padding", []byte{0x68, 0x04, 0x07, 0x01, 0x00, 0x00}, false},
		{"S frame with ASDU bytes", []byte{0x68, 0x05, 0x01, 0x00, 0x02, 0x00, 0x00}, false},
		{"I frame too short for an ASDU header", []byte{0x68, 0x08, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x01}, false},
		{"Modbus request with transaction ID 0x6805", []byte{0x68, 0x05, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x64, 0x00, 0x06}, false},
		{"Modbus request with transaction ID 0x6810", []byte{0x68, 0x10, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x64, 0x00, 0x06}, false},
		{"Modbus request with transaction ID 0x68FD", []byte{0x68, 0xfd, 0x00, 0x00, 0x00, 0x06, 0x01, 0x03, 0x00, 0x64, 0x00, 0x06}, false},
		{"Modbus response with transaction ID 0x6810", []byte{0x68, 0x10, 0x00, 0x00, 0x00, 0x0f, 0x01, 0x03, 0x0c, 0x00, 0x01}, false},
		{"I frame N(S) 0 N(R) 0", []byte{0x68, 0x0e, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x01, 0x03, 0x00}, true},
		{"I frame N(S) 0 N(R) 1", []byte{0x68, 0x0e, 0x00, 0x00, 0x02, 0x00, 0x0d, 0x01, 0x03, 0x00}, true},
		{"I frame N(S) 0 N(R) 128", []byte{0x68, 0x0e, 0x00, 0x00, 0x00, 0x01, 0x0d, 0x01, 0x03, 0x00}, true},
		{"I frame N(S) 1 N(R) 256", []byte{0x68, 0x0e, 0x02, 0x00, 0x00, 0x02, 0x0d, 0x01, 0x03, 0x00}, true},
		{"length octet beyond the maximum", []byte{0x68, 0xfe, 0x00, 0x00, 0x00, 0x00}, false},
		{"no start byte", []byte{0x00, 0x04, 0x07, 0x00, 0x00, 0x00}, false},
		{"shorter than an APCI", []byte{0x68, 0x04, 0x07}, false},
	} {
		if got := (dialect{}).Sniff(tc.b); got != tc.want {
			t.Errorf("%s: Sniff = %v, want %v", tc.name, got, tc.want)
		}
	}
}
