package ids

import (
	"fmt"
	"net/netip"
	"sort"

	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
)

// BaselineState is a Baseline's full serializable state in canonical
// (sorted) order: the form the drift codec persists so live monitors
// can start from a trained whitelist without re-reading the training
// capture. Building the same State twice yields identical values, so
// save → load → save through a deterministic codec is bit-exact.
type BaselineState struct {
	Endpoints []netip.Addr
	Conns     []ConnVocab
	Bigram    markov.NGramState
	Points    []PointRange
	Profiles  []StationProfile
	Rates     []ConnRate

	PerplexityFactor float64
	RangeMargin      float64
	WorstPerplexity  float64
}

// ConnVocab is one connection's allowed token vocabulary.
type ConnVocab struct {
	Server, Outstation string
	Tokens             []string
}

// PointRange is one whitelisted point's operating envelope.
type PointRange struct {
	Station string
	IOA     uint32
	Min     float64
	Max     float64
	Type    physical.PointType
	Command bool
	Samples int
}

// StationProfile is one endpoint's pinned wire dialect.
type StationProfile struct {
	Name    string
	Profile iec104.Profile
}

// ConnRate is one connection's baseline commands-per-APDU rate.
type ConnRate struct {
	Server, Outstation string
	Rate               float64
}

// State snapshots the baseline. The result shares nothing with b.
func (b *Baseline) State() BaselineState {
	s := BaselineState{
		PerplexityFactor: b.PerplexityFactor,
		RangeMargin:      b.RangeMargin,
		WorstPerplexity:  b.worstPerplexity,
	}
	if b.bigram != nil {
		s.Bigram = b.bigram.State()
	}
	for a := range b.endpoints {
		s.Endpoints = append(s.Endpoints, a)
	}
	sort.Slice(s.Endpoints, func(i, j int) bool { return s.Endpoints[i].Compare(s.Endpoints[j]) < 0 })
	for ck, vocab := range b.conns {
		cv := ConnVocab{Server: ck.Server, Outstation: ck.Outstation}
		for t := range vocab {
			cv.Tokens = append(cv.Tokens, t.String())
		}
		sort.Strings(cv.Tokens)
		s.Conns = append(s.Conns, cv)
	}
	sort.Slice(s.Conns, func(i, j int) bool {
		if s.Conns[i].Server != s.Conns[j].Server {
			return s.Conns[i].Server < s.Conns[j].Server
		}
		return s.Conns[i].Outstation < s.Conns[j].Outstation
	})
	for pk, vr := range b.points {
		s.Points = append(s.Points, PointRange{
			Station: pk.Station, IOA: pk.IOA,
			Min: vr.Min, Max: vr.Max,
			Type: vr.Type, Command: vr.Command, Samples: vr.Samples,
		})
	}
	sort.Slice(s.Points, func(i, j int) bool {
		if s.Points[i].Station != s.Points[j].Station {
			return s.Points[i].Station < s.Points[j].Station
		}
		return s.Points[i].IOA < s.Points[j].IOA
	})
	for name, p := range b.profiles {
		s.Profiles = append(s.Profiles, StationProfile{Name: name, Profile: p})
	}
	sort.Slice(s.Profiles, func(i, j int) bool { return s.Profiles[i].Name < s.Profiles[j].Name })
	for ck, r := range b.commandRate {
		s.Rates = append(s.Rates, ConnRate{Server: ck.Server, Outstation: ck.Outstation, Rate: r})
	}
	sort.Slice(s.Rates, func(i, j int) bool {
		if s.Rates[i].Server != s.Rates[j].Server {
			return s.Rates[i].Server < s.Rates[j].Server
		}
		return s.Rates[i].Outstation < s.Rates[j].Outstation
	})
	return s
}

// BaselineFromState rebuilds a trained baseline from a snapshot. The
// snapshot is untrusted (drift.DecodeBaseline hands it over): a token
// text protocol.ParseToken rejects is an error, never a dropped entry.
func BaselineFromState(s BaselineState) (*Baseline, error) {
	b := &Baseline{
		endpoints:        make(map[netip.Addr]bool, len(s.Endpoints)),
		conns:            make(map[connKey]map[iec104.Token]bool, len(s.Conns)),
		points:           make(map[pointKey]*valueRange, len(s.Points)),
		profiles:         make(map[string]iec104.Profile, len(s.Profiles)),
		commandRate:      make(map[connKey]float64, len(s.Rates)),
		PerplexityFactor: s.PerplexityFactor,
		RangeMargin:      s.RangeMargin,
		worstPerplexity:  s.WorstPerplexity,
	}
	var err error
	b.bigram, err = markov.NGramFromState(s.Bigram)
	if err != nil {
		return nil, fmt.Errorf("ids: restore baseline: %w", err)
	}
	for _, a := range s.Endpoints {
		b.endpoints[a] = true
	}
	for _, cv := range s.Conns {
		vocab := make(map[iec104.Token]bool, len(cv.Tokens))
		for _, text := range cv.Tokens {
			t, err := protocol.ParseToken(text)
			if err != nil {
				return nil, fmt.Errorf("ids: restore baseline: vocabulary of %s-%s: %w", cv.Server, cv.Outstation, err)
			}
			vocab[t] = true
		}
		b.conns[connKey{Server: cv.Server, Outstation: cv.Outstation}] = vocab
	}
	for _, pr := range s.Points {
		b.points[pointKey{Station: pr.Station, IOA: pr.IOA}] = &valueRange{
			Min: pr.Min, Max: pr.Max, Type: pr.Type, Command: pr.Command, Samples: pr.Samples,
		}
	}
	for _, sp := range s.Profiles {
		b.profiles[sp.Name] = sp.Profile
	}
	for _, cr := range s.Rates {
		b.commandRate[connKey{Server: cr.Server, Outstation: cr.Outstation}] = cr.Rate
	}
	return b, nil
}
