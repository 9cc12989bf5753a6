package markov

import (
	"slices"
	"strings"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
)

// ConnSummary condenses one server↔outstation token stream for
// classification.
type ConnSummary struct {
	Server     string
	Outstation string
	Chain      *Chain
}

// flags derived from a chain.
type connFlags struct {
	hasI, hasI100, hasU16, hasU32, hasS bool
}

// flagsOf reads the flags off the chain's node table; order does not
// matter to them, so nothing is copied or sorted.
func flagsOf(c *Chain) connFlags {
	var f connFlags
	for i := range c.nodes {
		t := c.nodes[i].Token
		// The Table 6 rules are defined over the IEC 104 alphabet; other
		// dialects' tokens in a mixed chain carry no classification signal.
		if t.Proto != protocol.IEC104 {
			continue
		}
		switch t.Kind {
		case protocol.KindIEC104I:
			f.hasI = true
			if iec104.TypeID(t.Code) == iec104.CIcNa {
				f.hasI100 = true
			}
		case protocol.KindIEC104S:
			f.hasS = true
		case protocol.KindIEC104U:
			switch iec104.UFunc(t.Code) {
			case iec104.UTestFRAct:
				f.hasU16 = true
			case iec104.UTestFRCon:
				f.hasU32 = true
			}
		}
	}
	return f
}

// OutstationClass is the classification verdict for one RTU.
type OutstationClass struct {
	Outstation string
	Type       int // 1..8, 0 = unclassifiable
	// Connections counts the server relationships considered.
	Connections int
}

// ClassifyOutstation applies the Table 6 / Fig. 17 rules to every
// connection of one outstation (across both control servers and, when
// the caller merges campaigns, across captures):
//
//	Type 8: a connection that was a keep-alive secondary and then
//	        carried an interrogation and I data — an observed
//	        switchover.
//	Type 7: only keep-alive-style connections, at least one of which
//	        shows U16 without the U32 acknowledgement (reset backups).
//	Type 6: an I-format primary plus a refused secondary (U16, no U32).
//	Type 5: a single connection carrying both I and complete keep-alive
//	        pairs (T3 firing between sparse spontaneous reports).
//	Type 2: an I-format primary plus a healthy U16/U32 secondary.
//	Type 4: I-format connections to two different servers.
//	Type 3: only healthy keep-alive connections (backup RTU).
//	Type 1: a single I-format connection, no secondary.
func ClassifyOutstation(conns []ConnSummary) OutstationClass {
	if len(conns) == 0 {
		return OutstationClass{}
	}
	out := OutstationClass{Outstation: conns[0].Outstation, Connections: len(conns)}

	// An outstation talks to a handful of servers: a short list on the
	// stack, not a map.
	type serverFlags struct {
		server string
		connFlags
	}
	var buf [4]serverFlags
	perServer := buf[:0]
	for _, c := range conns {
		f := flagsOf(c.Chain)
		i := slices.IndexFunc(perServer, func(s serverFlags) bool { return s.server == c.Server })
		if i < 0 {
			perServer = append(perServer, serverFlags{server: c.Server, connFlags: f})
			continue
		}
		prev := &perServer[i].connFlags
		prev.hasI = prev.hasI || f.hasI
		prev.hasI100 = prev.hasI100 || f.hasI100
		prev.hasU16 = prev.hasU16 || f.hasU16
		prev.hasU32 = prev.hasU32 || f.hasU32
		prev.hasS = prev.hasS || f.hasS
	}

	var iServers, keepAliveServers, refusedServers, switchoverServers int
	var soloBoth bool
	for _, s := range perServer {
		f := s.connFlags
		switch {
		case f.hasI && f.hasU16 && f.hasU32 && f.hasI100:
			switchoverServers++
		case f.hasI:
			iServers++
			if f.hasU16 {
				soloBoth = true
			}
		case f.hasU16 && !f.hasU32:
			refusedServers++
		case f.hasU16 && f.hasU32:
			keepAliveServers++
		}
	}

	switch {
	case switchoverServers > 0:
		out.Type = 8
	case refusedServers > 0 && iServers+switchoverServers == 0 && !soloBoth:
		out.Type = 7
	case refusedServers > 0:
		out.Type = 6
	case soloBoth && iServers == 1 && keepAliveServers == 0:
		out.Type = 5
	case iServers == 1 && keepAliveServers > 0:
		out.Type = 2
	case iServers >= 2:
		out.Type = 4
	case iServers == 0 && keepAliveServers > 0:
		out.Type = 3
	case iServers == 1:
		out.Type = 1
	}
	return out
}

// ClassifyAll groups connection summaries by outstation and classifies
// each, returning results sorted by outstation name. conns is not
// modified.
func ClassifyAll(conns []ConnSummary) []OutstationClass {
	return AppendClasses(nil, slices.Clone(conns))
}

// AppendClasses is ClassifyAll over a list the caller hands over, for
// one that classifies every tick into lists it keeps: conns is sorted
// by outstation in place, its runs are classified, and the classes are
// appended to dst.
func AppendClasses(dst []OutstationClass, conns []ConnSummary) []OutstationClass {
	slices.SortStableFunc(conns, func(a, b ConnSummary) int { return strings.Compare(a.Outstation, b.Outstation) })
	for len(conns) > 0 {
		n := 1
		for n < len(conns) && conns[n].Outstation == conns[0].Outstation {
			n++
		}
		dst = append(dst, ClassifyOutstation(conns[:n]))
		conns = conns[n:]
	}
	return dst
}

// TypeDistribution tallies classes 1..8 (index 0 collects
// unclassifiable stations).
func TypeDistribution(classes []OutstationClass) [9]int {
	var dist [9]int
	for _, c := range classes {
		if c.Type >= 0 && c.Type <= 8 {
			dist[c.Type]++
		}
	}
	return dist
}
