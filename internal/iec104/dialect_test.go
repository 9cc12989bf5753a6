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
