package iec104

import (
	"strconv"
	"strings"
	"testing"
)

func TestTypeIDDirections(t *testing.T) {
	monitor := []TypeID{MSpNa, MDpNa, MMeNc, MMeTf, MItTb, MEiNa}
	for _, ty := range monitor {
		if !ty.IsMonitor() {
			t.Errorf("%v not monitor-direction", ty)
		}
		if ty.IsCommand() {
			t.Errorf("%v claimed to be a command", ty)
		}
	}
	commands := []TypeID{CScNa, CDcNa, CSeNc, CSeTc, CIcNa, CCsNa, CRdNa, CRpNa, CTsTa}
	for _, ty := range commands {
		if !ty.IsCommand() {
			t.Errorf("%v not a command", ty)
		}
		if ty.IsMonitor() {
			t.Errorf("%v claimed monitor direction", ty)
		}
	}
	// Parameter and file types are neither.
	for _, ty := range []TypeID{PMeNa, FSgNa, FDrTa} {
		if ty.IsMonitor() || ty.IsCommand() {
			t.Errorf("%v misclassified", ty)
		}
	}
}

func TestTypeIDStrings(t *testing.T) {
	if MMeTf.Acronym() != "M_ME_TF_1" {
		t.Errorf("acronym %q", MMeTf.Acronym())
	}
	if !strings.Contains(MMeTf.Description(), "short floating point") {
		t.Errorf("description %q", MMeTf.Description())
	}
	// Unsupported types render placeholders, not panics.
	bad := TypeID(77)
	if bad.Acronym() != "TYPE_77" {
		t.Errorf("placeholder acronym %q", bad.Acronym())
	}
	if !strings.Contains(bad.Description(), "unsupported") {
		t.Errorf("placeholder description %q", bad.Description())
	}
	if bad.String() != "TYPE_77" {
		t.Errorf("String %q", bad.String())
	}
}

func TestFormatAndUFuncStrings(t *testing.T) {
	if FormatI.String() != "I" || FormatS.String() != "S" || FormatU.String() != "U" {
		t.Error("format strings broken")
	}
	if Format(9).String() != "Format(9)" {
		t.Errorf("unknown format: %q", Format(9).String())
	}
	names := map[UFunc]string{
		UStartDTAct: "STARTDT act", UStartDTCon: "STARTDT con",
		UStopDTAct: "STOPDT act", UStopDTCon: "STOPDT con",
		UTestFRAct: "TESTFR act", UTestFRCon: "TESTFR con",
	}
	for fn, want := range names {
		if fn.String() != want {
			t.Errorf("%d = %q, want %q", fn, fn.String(), want)
		}
	}
	if UFunc(3).String() != "UFunc(3)" {
		t.Errorf("unknown ufunc: %q", UFunc(3).String())
	}
}

func TestCauseStrings(t *testing.T) {
	cases := map[Cause]string{
		CausePeriodic:    "per/cyc",
		CauseSpontaneous: "spont",
		CauseInrogen:     "inrogen",
		Cause(25):        "inro5",
		Cause(60):        "cause(60)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d = %q, want %q", uint8(c), c.String(), want)
		}
	}
	if Cause(60).Valid() {
		t.Error("cause 60 reported valid")
	}
	if !Cause(25).Valid() {
		t.Error("group interrogation cause reported invalid")
	}
}

func TestProfileValidateAndString(t *testing.T) {
	bad := []Profile{
		{COTSize: 3, CommonAddrSize: 2, IOASize: 3},
		{COTSize: 2, CommonAddrSize: 3, IOASize: 3},
		{COTSize: 2, CommonAddrSize: 2, IOASize: 1},
		{COTSize: 0, CommonAddrSize: 0, IOASize: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %+v validated", p)
		}
	}
	names := map[string]Profile{
		"standard":          Standard,
		"legacy-cot8":       LegacyCOT,
		"legacy-ioa16":      LegacyIOA,
		"legacy-cot8-ioa16": LegacyCOTIOA,
		"legacy-full":       LegacyFull,
	}
	for want, p := range names {
		if p.String() != want {
			t.Errorf("%+v = %q, want %q", p, p.String(), want)
		}
	}
	odd := Profile{COTSize: 2, CommonAddrSize: 1, IOASize: 3}
	if !strings.Contains(odd.String(), "profile(") {
		t.Errorf("custom profile string %q", odd.String())
	}
	// Marshal rejects invalid profiles outright.
	a := NewMeasurement(MMeNc, 1, 1, Value{Kind: KindFloat}, CauseSpontaneous)
	if _, err := a.Marshal(Profile{COTSize: 9}); err == nil {
		t.Error("invalid profile accepted by Marshal")
	}
	if _, err := ParseASDU([]byte{13, 1, 3, 0, 1, 0}, Profile{IOASize: 9}); err == nil {
		t.Error("invalid profile accepted by ParseASDU")
	}
}

func TestSortTokens(t *testing.T) {
	toks := []Token{
		IToken(MMeTf),
		UToken(UTestFRCon),
		TokenS,
		UToken(UStartDTAct),
		IToken(MMeNc),
	}
	SortTokens(toks)
	want := []string{"S", "U1", "U32", "I13", "I36"}
	for i, w := range want {
		if toks[i].String() != w {
			t.Fatalf("position %d = %s, want %s (all: %v)", i, toks[i], w, toks)
		}
	}
}

func TestCommonAddrOverflowLegacyFull(t *testing.T) {
	a := NewMeasurement(MMeNc, 300, 1, Value{Kind: KindFloat}, CauseSpontaneous)
	if _, err := a.Marshal(LegacyFull); err == nil {
		t.Error("common address 300 accepted with 1-octet CA")
	}
}

func TestEncodeElementAllMonitorKinds(t *testing.T) {
	// Exercise the typed (non-raw) encode paths for each element
	// family and confirm they decode to the same value.
	cases := []struct {
		t TypeID
		v Value
	}{
		{MStNa, Value{Kind: KindStep, Float: -12, Bits: 1 << 8}},
		{MBoNa, Value{Kind: KindBitstring, Bits: 0xDEADBEEF}},
		{MMeNa, Value{Kind: KindNormalized, Float: 0.5}},
		{MMeNb, Value{Kind: KindScaled, Float: -1234}},
		{MItNa, Value{Kind: KindCounter, Bits: 99999, Quality: Quality{Invalid: true}}},
		{MPsNa, Value{Kind: KindBitstring, Bits: 0x0F0F}},
		{CScNa, Value{Kind: KindCommand, Bits: 0x81}},
		{CRcNa, Value{Kind: KindCommand, Bits: 0x02}},
		{CSeNa, Value{Kind: KindCommand, Float: 0.25}},
		{CSeNb, Value{Kind: KindCommand, Float: -77}},
		{CBoNa, Value{Kind: KindBitstring, Bits: 0x1234}},
		{CCiNa, Value{Kind: KindQualifier, Bits: 5}},
		{CRpNa, Value{Kind: KindQualifier, Bits: 1}},
		{PMeNa, Value{Kind: KindCommand, Float: 0.1}},
		{PMeNb, Value{Kind: KindCommand, Float: 42}},
		{PMeNc, Value{Kind: KindCommand, Float: 3.5}},
		{PAcNa, Value{Kind: KindQualifier, Bits: 1}},
	}
	for _, c := range cases {
		ioa := uint32(11)
		switch c.t {
		case CCiNa, CRpNa:
			ioa = 0
		}
		a := &ASDU{Type: c.t, COT: COT{Cause: CauseActivation}, CommonAddr: 2,
			Objects: []InfoObject{{IOA: ioa, Value: c.v}}}
		b, err := a.Marshal(Standard)
		if err != nil {
			t.Fatalf("%v: marshal: %v", c.t, err)
		}
		got, err := ParseASDU(b, Standard)
		if err != nil {
			t.Fatalf("%v: parse: %v", c.t, err)
		}
		gv := got.Objects[0].Value
		switch c.v.Kind {
		case KindBitstring:
			mask := uint32(0xFFFFFFFF)
			if gv.Bits&mask != c.v.Bits&mask {
				t.Errorf("%v: bits %#x, want %#x", c.t, gv.Bits, c.v.Bits)
			}
		case KindQualifier:
			if gv.Bits != c.v.Bits {
				t.Errorf("%v: qualifier %d, want %d", c.t, gv.Bits, c.v.Bits)
			}
		case KindStep:
			if gv.Float != c.v.Float || gv.Bits&(1<<8) != c.v.Bits&(1<<8) {
				t.Errorf("%v: step %v/%#x", c.t, gv.Float, gv.Bits)
			}
		case KindCounter:
			if gv.Bits != c.v.Bits || !gv.Quality.Invalid {
				t.Errorf("%v: counter %d invalid=%t", c.t, gv.Bits, gv.Quality.Invalid)
			}
		default:
			diff := gv.Float - c.v.Float
			if diff < 0 {
				diff = -diff
			}
			tol := 0.001
			if c.v.Kind == KindCommand && (c.t == CScNa || c.t == CRcNa) {
				// Command qualifier octet round-trips through Bits.
				if gv.Bits != c.v.Bits {
					t.Errorf("%v: command octet %#x, want %#x", c.t, gv.Bits, c.v.Bits)
				}
				continue
			}
			if diff > tol {
				t.Errorf("%v: value %v, want %v", c.t, gv.Float, c.v.Float)
			}
		}
	}
}

func TestClampNVA(t *testing.T) {
	a := NewMeasurement(MMeNa, 1, 2, Value{Kind: KindNormalized, Float: 5}, CausePeriodic)
	b, err := a.Marshal(Standard)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseASDU(b, Standard)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objects[0].Value.Float > 1 {
		t.Fatalf("over-range normalized value %v not clamped", got.Objects[0].Value.Float)
	}
	a = NewMeasurement(MMeNa, 1, 2, Value{Kind: KindNormalized, Float: -5}, CausePeriodic)
	b, _ = a.Marshal(Standard)
	got, _ = ParseASDU(b, Standard)
	if got.Objects[0].Value.Float < -1 {
		t.Fatalf("under-range normalized value %v not clamped", got.Objects[0].Value.Float)
	}
}

// TestTableLookupsMatchMaps: the arrays the per-ASDU lookups index
// answer exactly as the maps they were built from, for every type
// identification and every cause value an octet can carry.
func TestTableLookupsMatchMaps(t *testing.T) {
	for i := 0; i < 256; i++ {
		id := TypeID(i)
		ti, ok := typeTable[id]
		if Supported(id) != ok {
			t.Errorf("type %d: Supported %v, map %v", i, Supported(id), ok)
		}
		wantSize, wantFixed := 0, false
		wantAcr, wantDesc := "TYPE_"+strconv.Itoa(i), "unsupported type identification"
		if ok {
			wantAcr, wantDesc = ti.acronym, ti.desc
			if !ti.variable {
				wantSize, wantFixed = ti.elemSize, true
			}
		}
		if size, fixed := id.ElementSize(); size != wantSize || fixed != wantFixed {
			t.Errorf("type %d: ElementSize %d,%v, map %d,%v", i, size, fixed, wantSize, wantFixed)
		}
		if id.Acronym() != wantAcr || id.Description() != wantDesc {
			t.Errorf("type %d: %q / %q, map %q / %q", i, id.Acronym(), id.Description(), wantAcr, wantDesc)
		}
	}
	for i := 0; i < 256; i++ {
		c := Cause(i)
		name, ok := causeNames[c]
		group := i >= 21 && i <= 36
		if c.Valid() != (ok || group) {
			t.Errorf("cause %d: Valid %v, map %v", i, c.Valid(), ok || group)
		}
		switch {
		case ok:
		case group:
			name = "inro" + strconv.Itoa(i-20)
		default:
			name = "cause(" + strconv.Itoa(i) + ")"
		}
		if c.String() != name {
			t.Errorf("cause %d: %q, want %q", i, c.String(), name)
		}
	}
	if len(SupportedTypeIDs()) != len(typeTable) {
		t.Errorf("%d supported type IDs, map has %d", len(SupportedTypeIDs()), len(typeTable))
	}
}
