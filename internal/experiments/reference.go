package experiments

import (
	"fmt"
	"strings"

	"uncharted/internal/iec104"
	"uncharted/internal/topology"
)

// Table1Scale renders the paper's background comparison of transmission
// and distribution systems (§2, Table 1) alongside what the simulated
// bulk system models.
func (r *Runner) Table1Scale() (Result, error) {
	var t table
	t.row("", "Transmission", "Distribution")
	t.row("Power [W]", "10^9", "10^6")
	t.row("Area [km^2]", "> 4.67 million", "> 10600")
	t.row("Voltage [kV]", "> 110", "< 34.5")
	net := topology.Build()
	gens := 0
	for _, o := range net.Outstations() {
		if o.HasGenerator && o.SendsIFormat() {
			gens++
		}
	}
	txt := t.String() + fmt.Sprintf("\nSimulated bulk system: %d substations, %d generator-backed RTUs,\n"+
		"nominal voltage 130 kV, nominal frequency 60 Hz — transmission-scale per Table 1.\n",
		len(net.Substations), gens)
	return Result{ID: "table1", Title: "Transmission vs distribution scale (background)", Text: txt}, nil
}

// Table4Tokens renders the APDU token alphabet of §6.3.1 and verifies
// it against live traffic: every token observed in the Y1 capture must
// belong to the alphabet.
func (r *Runner) Table4Tokens() (Result, error) {
	var t table
	t.row("Token", "APDU", "Description")
	t.row("S", "S", "Ack of I APDUs")
	t.row("U1", "STARTDT act", "Start sending I APDUs")
	t.row("U2", "STARTDT con", "Ack of STARTDT")
	t.row("U4", "STOPDT act", "Stop sending I APDUs")
	t.row("U8", "STOPDT con", "Ack of STOPDT")
	t.row("U16", "TESTFR act", "Test status of connection")
	t.row("U32", "TESTFR con", "Ack of TESTFR")
	t.row("I<code>", "Variable type", "Sensor and control values")

	a, err := r.Analyzer(topology.Y1)
	if err != nil {
		return Result{}, err
	}
	observed := map[string]bool{}
	for _, key := range a.ConnKeys() {
		_, vocab := a.ConnTokens(key)
		for _, tok := range vocab {
			observed[tok.String()] = true
		}
	}
	var toks []string
	for s := range observed {
		toks = append(toks, s)
	}
	// Round-trip each observed token through the parser.
	bad := 0
	for _, s := range toks {
		if _, err := iec104.ParseToken(s); err != nil {
			bad++
		}
	}
	txt := t.String() + fmt.Sprintf("\nObserved %d distinct tokens in Y1 traffic; %d outside the alphabet.\n",
		len(toks), bad)
	return Result{ID: "table4", Title: "APDU token description", Text: txt}, nil
}

// Table5TypeIDs renders the 54 type identifications IEC 104 supports
// (of IEC 101's 127), marking the ones observed in traffic.
func (r *Runner) Table5TypeIDs() (Result, error) {
	seen := map[iec104.TypeID]bool{}
	for _, year := range []topology.Year{topology.Y1, topology.Y2} {
		a, err := r.Analyzer(year)
		if err != nil {
			return Result{}, err
		}
		for _, s := range a.TypeDistribution() {
			seen[s.Type] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-11s %-4s %s\n", "Code", "Acronym", "Seen", "Description")
	observed := 0
	for _, t := range iec104.SupportedTypeIDs() {
		mark := ""
		if seen[t] {
			mark = "*"
			observed++
		}
		fmt.Fprintf(&b, "%-6d %-11s %-4s %s\n", uint8(t), t.Acronym(), mark, t.Description())
	}
	fmt.Fprintf(&b, "\n%d of 54 supported type IDs observed (paper: 13).\n", observed)
	return Result{ID: "table5", Title: "IEC 104 type identifications", Text: b.String()}, nil
}
