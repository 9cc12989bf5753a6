package iec104

import "fmt"

// TypeID is the ASDU type identification: the first ASDU octet, which
// defines the exact data format or command that follows ("what" is
// being sent; the cause of transmission says "why").
type TypeID uint8

// Monitor direction process information.
const (
	MSpNa TypeID = 1  // M_SP_NA_1: single-point information
	MDpNa TypeID = 3  // M_DP_NA_1: double-point information
	MStNa TypeID = 5  // M_ST_NA_1: step position information
	MBoNa TypeID = 7  // M_BO_NA_1: bitstring of 32 bits
	MMeNa TypeID = 9  // M_ME_NA_1: measured value, normalized
	MMeNb TypeID = 11 // M_ME_NB_1: measured value, scaled
	MMeNc TypeID = 13 // M_ME_NC_1: measured value, short floating point
	MItNa TypeID = 15 // M_IT_NA_1: integrated totals
	MPsNa TypeID = 20 // M_PS_NA_1: packed single-point with status change detection
	MMeNd TypeID = 21 // M_ME_ND_1: measured value, normalized, no quality descriptor
)

// Monitor direction process information with CP56Time2a time tag.
const (
	MSpTb TypeID = 30 // M_SP_TB_1: single-point + time tag
	MDpTb TypeID = 31 // M_DP_TB_1: double-point + time tag
	MStTb TypeID = 32 // M_ST_TB_1: step position + time tag
	MBoTb TypeID = 33 // M_BO_TB_1: bitstring of 32 bits + time tag
	MMeTd TypeID = 34 // M_ME_TD_1: measured value, normalized + time tag
	MMeTe TypeID = 35 // M_ME_TE_1: measured value, scaled + time tag
	MMeTf TypeID = 36 // M_ME_TF_1: measured value, short float + time tag
	MItTb TypeID = 37 // M_IT_TB_1: integrated totals + time tag
	MEpTd TypeID = 38 // M_EP_TD_1: protection equipment event + time tag
	MEpTe TypeID = 39 // M_EP_TE_1: packed start events of protection equipment + time tag
	MEpTf TypeID = 40 // M_EP_TF_1: packed output circuit information + time tag
)

// Control direction process information.
const (
	CScNa TypeID = 45 // C_SC_NA_1: single command
	CDcNa TypeID = 46 // C_DC_NA_1: double command
	CRcNa TypeID = 47 // C_RC_NA_1: regulating step command
	CSeNa TypeID = 48 // C_SE_NA_1: set point command, normalized
	CSeNb TypeID = 49 // C_SE_NB_1: set point command, scaled
	CSeNc TypeID = 50 // C_SE_NC_1: set point command, short float (AGC setpoints)
	CBoNa TypeID = 51 // C_BO_NA_1: bitstring of 32 bits command
)

// Control direction process information with CP56Time2a time tag.
const (
	CScTa TypeID = 58 // C_SC_TA_1: single command + time tag
	CDcTa TypeID = 59 // C_DC_TA_1: double command + time tag
	CRcTa TypeID = 60 // C_RC_TA_1: regulating step command + time tag
	CSeTa TypeID = 61 // C_SE_TA_1: set point, normalized + time tag
	CSeTb TypeID = 62 // C_SE_TB_1: set point, scaled + time tag
	CSeTc TypeID = 63 // C_SE_TC_1: set point, short float + time tag
	CBoTa TypeID = 64 // C_BO_TA_1: bitstring of 32 bits + time tag
)

// System information.
const (
	MEiNa TypeID = 70  // M_EI_NA_1: end of initialization
	CIcNa TypeID = 100 // C_IC_NA_1: (general) interrogation command
	CCiNa TypeID = 101 // C_CI_NA_1: counter interrogation command
	CRdNa TypeID = 102 // C_RD_NA_1: read command
	CCsNa TypeID = 103 // C_CS_NA_1: clock synchronization command
	CRpNa TypeID = 105 // C_RP_NA_1: reset process command
	CTsTa TypeID = 107 // C_TS_TA_1: test command + time tag
)

// Parameter loading.
const (
	PMeNa TypeID = 110 // P_ME_NA_1: parameter of measured value, normalized
	PMeNb TypeID = 111 // P_ME_NB_1: parameter of measured value, scaled
	PMeNc TypeID = 112 // P_ME_NC_1: parameter of measured value, short float
	PAcNa TypeID = 113 // P_AC_NA_1: parameter activation
)

// File transfer.
const (
	FFrNa TypeID = 120 // F_FR_NA_1: file ready
	FSrNa TypeID = 121 // F_SR_NA_1: section ready
	FScNa TypeID = 122 // F_SC_NA_1: call directory / select file / call file / call section
	FLsNa TypeID = 123 // F_LS_NA_1: last section / last segment
	FAfNa TypeID = 124 // F_AF_NA_1: ack file / ack section
	FSgNa TypeID = 125 // F_SG_NA_1: segment
	FDrTa TypeID = 126 // F_DR_TA_1: directory
	FScNb TypeID = 127 // F_SC_NB_1: query log / request archive file
)

// typeInfo describes the wire layout of one type identification.
type typeInfo struct {
	acronym string
	desc    string
	// elemSize is the fixed size in octets of one information element
	// (excluding the IOA). Types with variable element sizes (file
	// segments) set variable instead.
	elemSize int
	variable bool
}

var typeTable = map[TypeID]typeInfo{
	MSpNa: {"M_SP_NA_1", "Single-point information", 1, false},
	MDpNa: {"M_DP_NA_1", "Double-point information", 1, false},
	MStNa: {"M_ST_NA_1", "Step position information", 2, false},
	MBoNa: {"M_BO_NA_1", "Bitstring of 32 bits", 5, false},
	MMeNa: {"M_ME_NA_1", "Measured value, normalized value", 3, false},
	MMeNb: {"M_ME_NB_1", "Measured value, scaled value", 3, false},
	MMeNc: {"M_ME_NC_1", "Measured value, short floating point number", 5, false},
	MItNa: {"M_IT_NA_1", "Integrated totals", 5, false},
	MPsNa: {"M_PS_NA_1", "Packed single-point information with status change detection", 5, false},
	MMeNd: {"M_ME_ND_1", "Measured value, normalized value without quality descriptor", 2, false},

	MSpTb: {"M_SP_TB_1", "Single-point information with time tag CP56Time2a", 8, false},
	MDpTb: {"M_DP_TB_1", "Double-point information with time tag CP56Time2a", 8, false},
	MStTb: {"M_ST_TB_1", "Step position information with time tag CP56Time2a", 9, false},
	MBoTb: {"M_BO_TB_1", "Bitstring of 32 bit with time tag CP56Time2a", 12, false},
	MMeTd: {"M_ME_TD_1", "Measured value, normalized value with time tag CP56Time2a", 10, false},
	MMeTe: {"M_ME_TE_1", "Measured value, scaled value with time tag CP56Time2a", 10, false},
	MMeTf: {"M_ME_TF_1", "Measured value, short floating point number with time tag CP56Time2a", 12, false},
	MItTb: {"M_IT_TB_1", "Integrated totals with time tag CP56Time2a", 12, false},
	MEpTd: {"M_EP_TD_1", "Event of protection equipment with time tag CP56Time2a", 10, false},
	MEpTe: {"M_EP_TE_1", "Packed start events of protection equipment with time tag CP56Time2a", 11, false},
	MEpTf: {"M_EP_TF_1", "Packed output circuit information of protection equipment with time tag CP56Time2a", 11, false},

	CScNa: {"C_SC_NA_1", "Single command", 1, false},
	CDcNa: {"C_DC_NA_1", "Double command", 1, false},
	CRcNa: {"C_RC_NA_1", "Regulating step command", 1, false},
	CSeNa: {"C_SE_NA_1", "Set point command, normalized value", 3, false},
	CSeNb: {"C_SE_NB_1", "Set point command, scaled value", 3, false},
	CSeNc: {"C_SE_NC_1", "Set point command, short floating point number", 5, false},
	CBoNa: {"C_BO_NA_1", "Bitstring of 32 bits", 4, false},

	CScTa: {"C_SC_TA_1", "Single command with time tag CP56Time2a", 8, false},
	CDcTa: {"C_DC_TA_1", "Double command with time tag CP56Time2a", 8, false},
	CRcTa: {"C_RC_TA_1", "Regulating step command with time tag CP56Time2a", 8, false},
	CSeTa: {"C_SE_TA_1", "Set point command, normalized value with time tag CP56Time2a", 10, false},
	CSeTb: {"C_SE_TB_1", "Set point command, scaled value with time tag CP56Time2a", 10, false},
	CSeTc: {"C_SE_TC_1", "Set point command, short floating point number with time tag CP56Time2a", 12, false},
	CBoTa: {"C_BO_TA_1", "Bitstring of 32 bits with time tag CP56Time2a", 11, false},

	MEiNa: {"M_EI_NA_1", "End of initialization", 1, false},
	CIcNa: {"C_IC_NA_1", "Interrogation command", 1, false},
	CCiNa: {"C_CI_NA_1", "Counter interrogation command", 1, false},
	CRdNa: {"C_RD_NA_1", "Read command", 0, false},
	CCsNa: {"C_CS_NA_1", "Clock synchronization command", 7, false},
	CRpNa: {"C_RP_NA_1", "Reset process command", 1, false},
	CTsTa: {"C_TS_TA_1", "Test command with time tag CP56Time2a", 9, false},

	PMeNa: {"P_ME_NA_1", "Parameter of measured value, normalized value", 3, false},
	PMeNb: {"P_ME_NB_1", "Parameter of measured value, scaled value", 3, false},
	PMeNc: {"P_ME_NC_1", "Parameter of measured value, short floating-point number", 5, false},
	PAcNa: {"P_AC_NA_1", "Parameter activation", 1, false},

	FFrNa: {"F_FR_NA_1", "File ready", 6, false},
	FSrNa: {"F_SR_NA_1", "Section ready", 7, false},
	FScNa: {"F_SC_NA_1", "Call directory, select file, call file, call section", 4, false},
	FLsNa: {"F_LS_NA_1", "Last section, last segment", 5, false},
	FAfNa: {"F_AF_NA_1", "Ack file, ack section", 4, false},
	FSgNa: {"F_SG_NA_1", "Segment", 0, true},
	FDrTa: {"F_DR_TA_1", "Directory", 13, false},
	FScNb: {"F_SC_NB_1", "Query log, request archive file", 16, false},
}

// typeIndex is typeTable laid out by type identification, built once:
// the per-ASDU lookups index it instead of hashing. An empty acronym
// means the map has no entry.
var typeIndex = func() (idx [256]typeInfo) {
	for t, ti := range typeTable {
		idx[t] = ti
	}
	return idx
}()

// Supported reports whether t is one of the 54 type identifications
// IEC 104 carries over TCP/IP (IEC 101 defines 127; IEC 104 supports
// only this subset).
func Supported(t TypeID) bool {
	return typeIndex[t].acronym != ""
}

// SupportedTypeIDs returns the 54 supported type identifications in
// ascending order.
func SupportedTypeIDs() []TypeID {
	out := make([]TypeID, 0, len(typeTable))
	for t := uint8(1); t <= 127; t++ {
		if Supported(TypeID(t)) {
			out = append(out, TypeID(t))
		}
	}
	return out
}

// Acronym returns the standard acronym for t (e.g. "M_ME_TF_1"), or a
// numeric placeholder for unsupported types.
func (t TypeID) Acronym() string {
	if a := typeIndex[t].acronym; a != "" {
		return a
	}
	return fmt.Sprintf("TYPE_%d", uint8(t))
}

// Description returns the standard's prose description of t.
func (t TypeID) Description() string {
	if Supported(t) {
		return typeIndex[t].desc
	}
	return "unsupported type identification"
}

func (t TypeID) String() string { return t.Acronym() }

// ElementSize returns the fixed per-object information element size in
// octets (excluding the IOA) and whether the size is fixed. Variable-
// size types (file segments) return (0, false).
func (t TypeID) ElementSize() (int, bool) {
	ti := &typeIndex[t]
	if !Supported(t) || ti.variable {
		return 0, false
	}
	return ti.elemSize, true
}

// IsMonitor reports whether t flows in the monitor direction
// (outstation to control station).
func (t TypeID) IsMonitor() bool { return t >= 1 && t <= 40 || t == MEiNa }

// IsCommand reports whether t is a control-direction command.
func (t TypeID) IsCommand() bool {
	return t >= CScNa && t <= CBoNa || t >= CScTa && t <= CBoTa ||
		t == CIcNa || t == CCiNa || t == CRdNa || t == CCsNa || t == CRpNa || t == CTsTa
}

// HasTimeTag reports whether t's information elements end with a
// CP56Time2a time tag.
func (t TypeID) HasTimeTag() bool {
	switch t {
	case MSpTb, MDpTb, MStTb, MBoTb, MMeTd, MMeTe, MMeTf, MItTb, MEpTd, MEpTe, MEpTf,
		CScTa, CDcTa, CRcTa, CSeTa, CSeTb, CSeTc, CBoTa, CTsTa, FDrTa:
		return true
	}
	return false
}
