package pipeline

import (
	"context"
	"fmt"
	"net/netip"
	"sort"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/pcap"
	"uncharted/internal/topology"
)

func init() {
	Register(Spec{
		Kind: "station",
		Role: RoleFilter,
		In:   PortPackets,
		Out:  PortPackets,
		Doc:  "keep packets whose source or destination is one of the named stations (topology names or literal IPs)",
		Params: []ParamSpec{
			{Name: "stations", Type: ParamStrings, Required: true, Doc: "station names (C1, O17, ...) or IP addresses"},
		},
		Build: buildStationFilter,
	})
	Register(Spec{
		Kind: "ip_pair",
		Role: RoleFilter,
		In:   PortPackets,
		Out:  PortPackets,
		Doc:  "keep only traffic between two endpoints, either direction",
		Params: []ParamSpec{
			{Name: "a", Type: ParamString, Required: true, Doc: "first endpoint (station name or IP)"},
			{Name: "b", Type: ParamString, Required: true, Doc: "second endpoint (station name or IP)"},
		},
		Build: buildIPPairFilter,
	})
	Register(Spec{
		Kind: "asdu_type",
		Role: RoleFilter,
		In:   PortPackets,
		Out:  PortPackets,
		Doc:  "keep packets carrying at least one ASDU of the given type IDs (per-packet parse, no TCP reassembly)",
		Params: []ParamSpec{
			{Name: "types", Type: ParamInts, Required: true, Doc: "IEC 104 type IDs (e.g. 13 = M_ME_NC_1, 46 = C_DC_NA_1)"},
		},
		Build: buildASDUTypeFilter,
	})
	Register(Spec{
		Kind: "sample",
		Role: RoleFilter,
		In:   PortPackets,
		Out:  PortPackets,
		Doc:  "keep one packet in N (deterministic count-based downsampling)",
		Params: []ParamSpec{
			{Name: "every", Type: ParamInt, Required: true, Doc: "keep every Nth packet (N >= 1)"},
		},
		Build: buildSampleFilter,
	})
}

// FilterSegment applies a per-packet predicate to every batch,
// emitting only the survivors.
type FilterSegment struct {
	keep func(*pcap.Packet) bool
}

// Run implements Segment.
func (f *FilterSegment) Run(_ context.Context, in <-chan Msg, emit Emit) error {
	for m := range in {
		var kept []pcap.Packet
		for i := range m.Pkts {
			if f.keep(&m.Pkts[i]) {
				kept = append(kept, m.Pkts[i])
			}
		}
		if len(kept) > 0 {
			emit(Msg{Pkts: kept})
		}
	}
	return nil
}

// resolveEndpoint maps a station name or literal IP to its address
// set against the paper's topology.
func resolveEndpoint(names map[netip.Addr]string, s string) (map[netip.Addr]bool, error) {
	if a, err := netip.ParseAddr(s); err == nil {
		return map[netip.Addr]bool{a: true}, nil
	}
	out := make(map[netip.Addr]bool)
	for addr, name := range names {
		if name == s {
			out[addr] = true
		}
	}
	if len(out) == 0 {
		known := make([]string, 0, len(names))
		for _, n := range names {
			known = append(known, n)
		}
		sort.Strings(known)
		max := 8
		if len(known) < max {
			max = len(known)
		}
		return nil, fmt.Errorf("unknown station %q (not an IP either; known: %v ...)", s, known[:max])
	}
	return out, nil
}

func buildStationFilter(bc BuildCtx) (Segment, error) {
	names := core.NamesFromTopology(topology.Build())
	allow := make(map[netip.Addr]bool)
	for _, s := range bc.Params.Strs("stations") {
		set, err := resolveEndpoint(names, s)
		if err != nil {
			return nil, err
		}
		for a := range set {
			allow[a] = true
		}
	}
	return &FilterSegment{keep: func(p *pcap.Packet) bool {
		return allow[p.IP.Src] || allow[p.IP.Dst]
	}}, nil
}

func buildIPPairFilter(bc BuildCtx) (Segment, error) {
	names := core.NamesFromTopology(topology.Build())
	a, err := resolveEndpoint(names, bc.Params.Str("a"))
	if err != nil {
		return nil, err
	}
	b, err := resolveEndpoint(names, bc.Params.Str("b"))
	if err != nil {
		return nil, err
	}
	return &FilterSegment{keep: func(p *pcap.Packet) bool {
		return (a[p.IP.Src] && b[p.IP.Dst]) || (b[p.IP.Src] && a[p.IP.Dst])
	}}, nil
}

func buildASDUTypeFilter(bc BuildCtx) (Segment, error) {
	want := make(map[iec104.TypeID]bool)
	for _, t := range bc.Params.IntsList("types") {
		if t < 0 || t > 255 {
			return nil, fmt.Errorf("type ID %d out of range 0..255", t)
		}
		want[iec104.TypeID(t)] = true
	}
	return &FilterSegment{keep: func(p *pcap.Packet) bool {
		if len(p.TCP.Payload) == 0 {
			return false
		}
		// Best-effort per-packet parse: APDUs split across segments are
		// not reassembled here (the analyzer's per-connection parser
		// handles that); a filter only needs the common whole-APDU case.
		apdus, _, _ := iec104.ParseAPDUs(p.TCP.Payload, iec104.Standard)
		for _, a := range apdus {
			if a.ASDU != nil && want[a.ASDU.Type] {
				return true
			}
		}
		return false
	}}, nil
}

func buildSampleFilter(bc BuildCtx) (Segment, error) {
	every := bc.Params.Int("every")
	if every < 1 {
		return nil, fmt.Errorf("every must be >= 1, got %d", every)
	}
	n := 0
	return &FilterSegment{keep: func(*pcap.Packet) bool {
		keep := n%every == 0
		n++
		return keep
	}}, nil
}
