package markov_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/protocol"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// refChain is the nested-map chain the package used before the flat
// count table, kept as the reference the table is proven against: its
// Add walks a whole sequence, its sorts render Token.String() inside
// the comparator.
type refChain struct {
	counts map[iec104.Token]map[iec104.Token]int
	outs   map[iec104.Token]int
	nodes  map[iec104.Token]int
	total  int
}

func newRefChain() *refChain {
	return &refChain{
		counts: make(map[iec104.Token]map[iec104.Token]int),
		outs:   make(map[iec104.Token]int),
		nodes:  make(map[iec104.Token]int),
	}
}

func (c *refChain) add(seq []iec104.Token) {
	for i, tok := range seq {
		c.nodes[tok]++
		c.total++
		if i == 0 {
			continue
		}
		prev := seq[i-1]
		m, ok := c.counts[prev]
		if !ok {
			m = make(map[iec104.Token]int)
			c.counts[prev] = m
		}
		m[tok]++
		c.outs[prev]++
	}
}

func (c *refChain) edges() int {
	n := 0
	for _, m := range c.counts {
		n += len(m)
	}
	return n
}

func (c *refChain) prob(from, to iec104.Token) float64 {
	if c.outs[from] == 0 {
		return 0
	}
	return float64(c.counts[from][to]) / float64(c.outs[from])
}

func (c *refChain) edgeList() []markov.Edge {
	var out []markov.Edge
	for from, m := range c.counts {
		for to, cnt := range m {
			out = append(out, markov.Edge{From: from, To: to, Count: cnt, Prob: c.prob(from, to)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From.String() != out[j].From.String() {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
	return out
}

func (c *refChain) state() markov.ChainState {
	var s markov.ChainState
	for tok, n := range c.nodes {
		s.Nodes = append(s.Nodes, markov.TokenCount{Token: tok, Count: n})
	}
	sort.Slice(s.Nodes, func(i, j int) bool {
		return s.Nodes[i].Token.String() < s.Nodes[j].Token.String()
	})
	for from, m := range c.counts {
		for to, n := range m {
			s.Edges = append(s.Edges, markov.EdgeCount{From: from, To: to, Count: n})
		}
	}
	sort.Slice(s.Edges, func(i, j int) bool {
		if s.Edges[i].From.String() != s.Edges[j].From.String() {
			return s.Edges[i].From.String() < s.Edges[j].From.String()
		}
		return s.Edges[i].To.String() < s.Edges[j].To.String()
	})
	return s
}

func (c *refChain) isPoint11() bool {
	if len(c.nodes) != 1 || c.edges() > 1 {
		return false
	}
	return c.nodes[iec104.TokenTestFRAct] > 0
}

// assertMatchesReference checks every query the reports, the
// classifier and the drift codec make against the reference's answer.
func assertMatchesReference(t *testing.T, label string, got *markov.Chain, want *refChain) {
	t.Helper()
	if got.Nodes() != len(want.nodes) || got.Edges() != want.edges() || got.TotalTokens() != want.total {
		t.Fatalf("%s: nodes/edges/total %d/%d/%d, reference %d/%d/%d", label,
			got.Nodes(), got.Edges(), got.TotalTokens(), len(want.nodes), want.edges(), want.total)
	}
	if got.IsPoint11() != want.isPoint11() {
		t.Fatalf("%s: IsPoint11 %v, reference %v", label, got.IsPoint11(), want.isPoint11())
	}
	toks := got.Tokens()
	if len(toks) != len(want.nodes) {
		t.Fatalf("%s: %d tokens, reference %d", label, len(toks), len(want.nodes))
	}
	for _, from := range toks {
		if got.Count(from) != want.nodes[from] || !got.Has(from) {
			t.Fatalf("%s: Count(%s) %d, reference %d", label, from, got.Count(from), want.nodes[from])
		}
		for _, to := range toks {
			if g, w := got.Prob(from, to), want.prob(from, to); g != w {
				t.Fatalf("%s: Prob(%s,%s) %v, reference %v", label, from, to, g, w)
			}
		}
	}
	if g, w := got.EdgeList(), want.edgeList(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: EdgeList\n got %v\nwant %v", label, g, w)
	}
	if g, w := got.State(), want.state(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: State\n got %+v\nwant %+v", label, g, w)
	}
}

// randomToken draws from a small cross-dialect alphabet so sequences
// repeat transitions, with multi-digit codes whose textual order
// ("I100" < "I13" < "I9") differs from their numeric order.
func randomToken(rng *rand.Rand) iec104.Token {
	switch rng.Intn(8) {
	case 0:
		return iec104.TokenS
	case 1:
		return iec104.UToken(iec104.UFunc(1 << rng.Intn(6)))
	case 2:
		return protocol.Token{Proto: protocol.C37118, Kind: uint8(rng.Intn(5))}
	case 3:
		return protocol.Token{Proto: protocol.Modbus, Kind: uint8(rng.Intn(3)), Code: uint16([]int{1, 3, 4, 16, 23, 100, 131}[rng.Intn(7)])}
	default:
		return iec104.IToken(iec104.TypeID([]int{1, 3, 9, 13, 30, 36, 45, 100, 103, 120}[rng.Intn(10)]))
	}
}

// TestChainMatchesNestedMapReference: on 1000 seeded random token
// sequences, each cut into separately added pieces, the flat table
// answers every query as the nested maps did; the chain counted token
// by token through a Cursor, the chain merged from per-piece chains in
// either order and the chain restored from its State are all
// DeepEqual to it.
func TestChainMatchesNestedMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20200327))
	for n := 0; n < 1000; n++ {
		var pieces [][]iec104.Token
		for p := rng.Intn(4); p >= 0; p-- {
			seq := make([]iec104.Token, rng.Intn(60))
			for i := range seq {
				seq[i] = randomToken(rng)
			}
			pieces = append(pieces, seq)
		}
		label := fmt.Sprintf("sequence %d", n)

		ref := newRefChain()
		whole := markov.NewChain()
		live := markov.NewChain()
		forward, backward := markov.NewChain(), markov.NewChain()
		for i, seq := range pieces {
			ref.add(seq)
			whole.Add(seq)
			var cur markov.Cursor
			for _, tok := range seq {
				live.Observe(&cur, tok)
			}
			part := markov.NewChain()
			part.Add(seq)
			forward.Merge(part)
			rev := markov.NewChain()
			rev.Add(pieces[len(pieces)-1-i])
			backward.Merge(rev)
		}
		assertMatchesReference(t, label, whole, ref)
		for name, c := range map[string]*markov.Chain{
			"token-by-token":       live,
			"merged":               forward,
			"merged in reverse":    backward,
			"restored from State":  markov.ChainFromState(whole.State()),
			"cloned":               whole.Clone(),
			"merged into an empty": mergedInto(markov.NewChain(), whole),
		} {
			if !reflect.DeepEqual(c, whole) {
				t.Fatalf("%s: %s chain differs from the one built by Add:\n got %+v\nwant %+v", label, name, c.State(), whole.State())
			}
		}
	}
}

func mergedInto(dst, src *markov.Chain) *markov.Chain {
	dst.Merge(src)
	return dst
}

// TestChainFromStateToleratesDisorderAndRepeats: a decoded state is
// untrusted input — entries in any order, the same token or transition
// listed twice — and restores to the chain whose counts are the sums.
func TestChainFromStateToleratesDisorderAndRepeats(t *testing.T) {
	i13, i100, s := iec104.IToken(13), iec104.IToken(100), iec104.TokenS
	got := markov.ChainFromState(markov.ChainState{
		Nodes: []markov.TokenCount{{Token: s, Count: 1}, {Token: i13, Count: 3}, {Token: i100, Count: 1}, {Token: i13, Count: 1}},
		Edges: []markov.EdgeCount{{From: s, To: i13, Count: 1}, {From: i13, To: i13, Count: 1}, {From: i100, To: i13, Count: 1}, {From: i13, To: i13, Count: 1}, {From: i13, To: s, Count: 1}},
	})
	want := markov.NewChain()
	want.Add([]iec104.Token{i100, i13, i13, i13, s, i13})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %+v, want %+v", got.State(), want.State())
	}
}

// TestCloneDoesNotAlias: counting on after a Clone leaves the clone as
// it was, and the other way round.
func TestCloneDoesNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	live := markov.NewChain()
	var cur markov.Cursor
	for i := 0; i < 200; i++ {
		live.Observe(&cur, randomToken(rng))
	}
	snap := live.Clone()
	before := snap.State()
	for i := 0; i < 200; i++ {
		live.Observe(&cur, randomToken(rng))
	}
	if !reflect.DeepEqual(snap.State(), before) {
		t.Fatal("clone changed when the live chain counted on")
	}
	liveBefore := live.State()
	snap.Merge(live)
	if !reflect.DeepEqual(live.State(), liveBefore) {
		t.Fatal("live chain changed when its clone was merged into")
	}
}

// streamRecorder is a core.FrameObserver keeping what the analyzer
// does not: every connection's token stream, in arrival order.
type streamRecorder map[core.ConnKey][]iec104.Token

func (r streamRecorder) ObserveFrame(ev core.FrameEvent) {
	r[ev.Conn] = append(r[ev.Conn], ev.Token)
}

// goldenAnalyzer runs the capture behind internal/stream's golden
// fixtures (Y1, seed 7, three minutes; mixed adds the C37.118 and
// Modbus traffic and auto-detection) through one analyzer, and returns
// the token streams it saw go by.
func goldenAnalyzer(t *testing.T, mixed, dedup bool) (*core.Analyzer, streamRecorder) {
	t.Helper()
	cfg := scadasim.DefaultConfig(topology.Y1, 7)
	cfg.Duration = 3 * time.Minute
	cfg.EnableModbus = mixed
	sim, err := scadasim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	a := core.NewAnalyzer(core.NamesFromTopology(sim.Network()))
	a.DedupRetransmissions = dedup
	streams := streamRecorder{}
	a.SetFrameObserver(streams)
	if mixed {
		a.EnableProtocolDetect()
	}
	if err := a.ReadPCAP(&buf); err != nil {
		t.Fatal(err)
	}
	return a, streams
}

// TestLiveChainsMatchReferenceOnGoldenCaptures: the chain the analyzer
// counts as each connection's tokens arrive — what Partial and
// MarkovChains hand out — is the chain the reference builds from the
// finished stream (recorded by an observer; the analyzer keeps only
// the chain and its first-seen vocabulary), for every connection of the golden
// IEC 104 and mixed captures, with retransmission dedup on and off.
func TestLiveChainsMatchReferenceOnGoldenCaptures(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		for _, dedup := range []bool{true, false} {
			t.Run(fmt.Sprintf("mixed=%v/dedup=%v", mixed, dedup), func(t *testing.T) {
				a, streams := goldenAnalyzer(t, mixed, dedup)
				chains := a.Partial().Chains
				report := a.MarkovChains().Chains
				keys := a.ConnKeys()
				if len(keys) == 0 || len(chains) != len(keys) || len(report) != len(keys) {
					t.Fatalf("%d connections, %d partial chains, %d report chains", len(keys), len(chains), len(report))
				}
				tokens := 0
				for i, key := range keys {
					stream := streams[key]
					tokens += len(stream)
					if live, vocab := a.ConnTokens(key); !reflect.DeepEqual(vocab, firstSeen(stream)) || live.TotalTokens() != len(stream) {
						t.Fatalf("%v: vocabulary %v over %d tokens, the stream's first-seen order is %v over %d",
							key, vocab, live.TotalTokens(), firstSeen(stream), len(stream))
					}
					ref := newRefChain()
					ref.add(stream)
					label := chains[i].Server + "-" + chains[i].Outstation
					if chains[i].Key != key {
						t.Fatalf("chain %d is %v, want %v", i, chains[i].Key, key)
					}
					assertMatchesReference(t, label, chains[i].Chain, ref)
					fresh := markov.NewChain()
					fresh.Add(stream)
					if !reflect.DeepEqual(chains[i].Chain, fresh) || !reflect.DeepEqual(report[i].Chain, fresh) {
						t.Fatalf("%s: live chain differs from one built over the finished stream", label)
					}
				}
				t.Logf("%d connections, %d tokens", len(keys), tokens)
			})
		}
	}
}

// firstSeen returns a stream's distinct tokens in order of first
// appearance.
func firstSeen(stream []iec104.Token) []iec104.Token {
	var out []iec104.Token
	seen := map[iec104.Token]bool{}
	for _, t := range stream {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
