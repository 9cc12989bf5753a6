package markov

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
)

func toks(names ...string) []iec104.Token {
	out := make([]iec104.Token, len(names))
	for i, n := range names {
		t, err := iec104.ParseToken(n)
		if err != nil {
			panic(err)
		}
		out[i] = t
	}
	return out
}

func TestChainPrimaryPattern(t *testing.T) {
	// Fig. 12 left: I36 reports acknowledged by S.
	c := NewChain()
	c.Add(toks("I36", "I36", "S", "I36", "I36", "S", "I36"))
	if c.Nodes() != 2 {
		t.Fatalf("nodes %d", c.Nodes())
	}
	// Edges: I36->I36, I36->S, S->I36.
	if c.Edges() != 3 {
		t.Fatalf("edges %d", c.Edges())
	}
	pII := c.Prob(toks("I36")[0], toks("I36")[0])
	pIS := c.Prob(toks("I36")[0], toks("S")[0])
	if math.Abs(pII+pIS-1) > 1e-9 {
		t.Fatalf("outgoing probabilities %v + %v != 1", pII, pIS)
	}
	if pSI := c.Prob(toks("S")[0], toks("I36")[0]); pSI != 1 {
		t.Fatalf("S->I36 = %v", pSI)
	}
}

func TestChainSecondaryPattern(t *testing.T) {
	// Fig. 12 right: U16/U32 keep-alive ping-pong.
	c := NewChain()
	c.Add(toks("U16", "U32", "U16", "U32", "U16", "U32"))
	if c.Nodes() != 2 || c.Edges() != 2 {
		t.Fatalf("nodes %d edges %d", c.Nodes(), c.Edges())
	}
	if Classify11SquareEllipse(c) != ClusterSquare {
		t.Fatalf("healthy secondary classified %v", Classify11SquareEllipse(c))
	}
}

func TestChainPoint11(t *testing.T) {
	// Fig. 14: repeated U16 without acknowledgement.
	c := NewChain()
	c.Add(toks("U16", "U16", "U16", "U16"))
	if !c.IsPoint11() {
		t.Fatalf("nodes %d edges %d", c.Nodes(), c.Edges())
	}
	if Classify11SquareEllipse(c) != ClusterPoint11 {
		t.Fatal("not classified as point (1,1)")
	}
}

func TestChainEllipse(t *testing.T) {
	// Fig. 15: activation, interrogation, then data.
	c := NewChain()
	c.Add(toks("U1", "U2", "I100", "I13", "I36", "I13", "S", "I13"))
	if !c.HasInterrogation() {
		t.Fatal("I100 not detected")
	}
	if Classify11SquareEllipse(c) != ClusterEllipse {
		t.Fatal("not classified as ellipse")
	}
	if c.Nodes() < 5 {
		t.Fatalf("nodes %d", c.Nodes())
	}
}

func TestChainSeparateSequencesNotStitched(t *testing.T) {
	c := NewChain()
	c.Add(toks("I13"))
	c.Add(toks("S"))
	if c.Edges() != 0 {
		t.Fatalf("cross-sequence edge created: %d", c.Edges())
	}
	if c.Nodes() != 2 || c.TotalTokens() != 2 {
		t.Fatalf("nodes %d total %d", c.Nodes(), c.TotalTokens())
	}
}

func TestChainEdgeListDeterministic(t *testing.T) {
	c := NewChain()
	c.Add(toks("U16", "U32", "U16", "U32", "I13", "S"))
	e1 := c.EdgeList()
	e2 := c.EdgeList()
	if len(e1) != len(e2) {
		t.Fatal("edge list unstable")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("edge list order unstable")
		}
	}
	for _, e := range e1 {
		if e.Prob <= 0 || e.Prob > 1 {
			t.Fatalf("edge %v prob %v", e, e.Prob)
		}
	}
}

func TestNGramMLE(t *testing.T) {
	m, err := NewNGram(2)
	if err != nil {
		t.Fatal(err)
	}
	// (S, I36) and (I13, I13) examples straight from §6.3.1.
	m.Train(toks("S", "I36", "S", "I36", "S", "I13", "I13"))
	p, err := m.Prob(toks("S", "I36"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-2.0/3.0) > 1e-9 {
		t.Fatalf("P(I36|S) = %v, want 2/3", p)
	}
	p, _ = m.Prob(toks("I13", "I13"))
	if p != 1 {
		t.Fatalf("P(I13|I13) = %v", p)
	}
	p, _ = m.Prob(toks("I36", "U16"))
	if p != 0 {
		t.Fatalf("unseen gram probability %v", p)
	}
}

func TestNGramErrors(t *testing.T) {
	if _, err := NewNGram(0); err == nil {
		t.Error("order 0 accepted")
	}
	m, _ := NewNGram(3)
	if _, err := m.Prob(toks("S", "I36")); err == nil {
		t.Error("wrong gram length accepted")
	}
	if _, err := m.SequenceLogProb(toks("S")); err == nil {
		t.Error("too-short sequence accepted")
	}
}

func TestNGramPerplexityDiscriminates(t *testing.T) {
	m, _ := NewNGram(2)
	// Train on healthy primary traffic.
	var healthy []iec104.Token
	for i := 0; i < 50; i++ {
		healthy = append(healthy, toks("I36", "I36", "S")...)
	}
	m.Train(healthy)
	inDist, err := m.Perplexity(toks("I36", "I36", "S", "I36", "I36", "S"))
	if err != nil {
		t.Fatal(err)
	}
	attack, err := m.Perplexity(toks("I100", "I45", "I46", "I100", "I45"))
	if err != nil {
		t.Fatal(err)
	}
	if attack <= inDist {
		t.Fatalf("attack perplexity %v <= in-distribution %v", attack, inDist)
	}
}

func TestNGramTrigram(t *testing.T) {
	m, _ := NewNGram(3)
	m.Train(toks("U16", "U32", "U16", "U32", "U16", "U32"))
	p, err := m.Prob(toks("U16", "U32", "U16"))
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("P(U16|U16 U32) = %v", p)
	}
}

func chainOf(names ...string) *Chain {
	c := NewChain()
	c.Add(toks(names...))
	return c
}

func TestClassifyTypes(t *testing.T) {
	cases := []struct {
		name  string
		conns []ConnSummary
		want  int
	}{
		{"type1 primary only", []ConnSummary{
			{Server: "C1", Outstation: "O1", Chain: chainOf("I36", "I36", "S")},
		}, 1},
		{"type2 ideal", []ConnSummary{
			{Server: "C1", Outstation: "O4", Chain: chainOf("I36", "S", "I36")},
			{Server: "C2", Outstation: "O4", Chain: chainOf("U16", "U32", "U16", "U32")},
		}, 2},
		{"type3 backup RTU", []ConnSummary{
			{Server: "C1", Outstation: "O11", Chain: chainOf("U16", "U32")},
			{Server: "C2", Outstation: "O11", Chain: chainOf("U16", "U32")},
		}, 3},
		{"type4 both servers", []ConnSummary{
			{Server: "C1", Outstation: "O12", Chain: chainOf("I13", "S", "I13")},
			{Server: "C2", Outstation: "O12", Chain: chainOf("I13", "I13")},
		}, 4},
		{"type5 single with I and U", []ConnSummary{
			{Server: "C1", Outstation: "O40", Chain: chainOf("I13", "U16", "U32", "I13", "S")},
		}, 5},
		{"type6 refused secondary", []ConnSummary{
			{Server: "C2", Outstation: "O5", Chain: chainOf("I36", "S")},
			{Server: "C1", Outstation: "O5", Chain: chainOf("U16", "U16", "U16")},
		}, 6},
		{"type7 reset backup", []ConnSummary{
			{Server: "C2", Outstation: "O7", Chain: chainOf("U16", "U32")},
			{Server: "C1", Outstation: "O7", Chain: chainOf("U16", "U16")},
		}, 7},
		{"type8 switchover", []ConnSummary{
			{Server: "C1", Outstation: "O29", Chain: chainOf("I36", "S", "I36")},
			{Server: "C2", Outstation: "O29", Chain: chainOf("U16", "U32", "U16", "U32", "U1", "U2", "I100", "I13", "I36", "S")},
		}, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := ClassifyOutstation(c.conns)
			if got.Type != c.want {
				t.Fatalf("classified type %d, want %d", got.Type, c.want)
			}
		})
	}
}

func TestClassifyAllAndDistribution(t *testing.T) {
	conns := []ConnSummary{
		{Server: "C1", Outstation: "O1", Chain: chainOf("I36", "S")},
		{Server: "C1", Outstation: "O11", Chain: chainOf("U16", "U32")},
		{Server: "C2", Outstation: "O11", Chain: chainOf("U16", "U32")},
	}
	classes := ClassifyAll(conns)
	if len(classes) != 2 {
		t.Fatalf("%d classes", len(classes))
	}
	if classes[0].Outstation != "O1" || classes[1].Outstation != "O11" {
		t.Fatalf("order %v", classes)
	}
	dist := TypeDistribution(classes)
	if dist[1] != 1 || dist[3] != 1 {
		t.Fatalf("distribution %v", dist)
	}
}

func TestClassifyEmpty(t *testing.T) {
	if got := ClassifyOutstation(nil); got.Type != 0 {
		t.Fatalf("empty classified %d", got.Type)
	}
}

// TestTextKeyOrdersLikeString sweeps every dialect (and an unknown
// one), every token kind and every code: sorting by textKey is sorting
// by String(), and two tokens share a key only when they share a
// rendering — which is what lets State and EdgeList sort on integers.
func TestTextKeyOrdersLikeString(t *testing.T) {
	type keyed struct {
		s string
		k uint64
	}
	var all []keyed
	for proto := protocol.ID(0); proto <= protocol.Modbus+1; proto++ {
		for kind := uint8(0); kind < 7; kind++ {
			for code := 0; code <= math.MaxUint16; code++ {
				tok := iec104.Token{Proto: proto, Kind: kind, Code: uint16(code)}
				s := tok.String()
				if len(s) > 8 {
					t.Fatalf("token %+v renders as %q: more than the 8 bytes textKey packs", tok, s)
				}
				all = append(all, keyed{s, textKey(tok)})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s < all[j].s })
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if (a.s == b.s) != (a.k == b.k) || a.k > b.k {
			t.Fatalf("%q (key %#x) then %q (key %#x): key order is not string order", a.s, a.k, b.s, b.k)
		}
	}
}

// TestCloneAllSharesNothing: CloneAll's copies equal Clone's — a chain
// without edges keeps a nil edge table — in three allocations for any
// number of chains, and a copy that grows reallocates its own tables
// instead of writing into its neighbour's or its source's.
func TestCloneAllSharesNothing(t *testing.T) {
	src := []*Chain{NewChain(), NewChain(), NewChain()}
	src[0].Add(toks("I36", "S", "I36", "I36"))
	src[1].Add(toks("U16"))
	src[2].Add(toks("I100", "I1", "I13", "S", "I13"))
	chain := func(i int) *Chain { return src[i] }
	copies := CloneAll(len(src), chain)
	for i := range src {
		if !reflect.DeepEqual(copies[i], *src[i].Clone()) {
			t.Fatalf("copy %d is %+v, Clone gives %+v", i, copies[i], *src[i].Clone())
		}
	}
	copies[0].Add(toks("U32", "U16", "I100"))
	copies[1].Add(toks("U32"))
	for i := range src {
		if i > 1 && !reflect.DeepEqual(copies[i], *src[i].Clone()) {
			t.Fatalf("growing copies 0 and 1 changed copy %d: %+v", i, copies[i])
		}
		if src[i].Has(toks("U32")[0]) {
			t.Fatalf("growing a copy wrote into source chain %d", i)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { CloneAll(len(src), chain) }); allocs != 3 {
		t.Fatalf("CloneAll allocates %.0f objects, want 3", allocs)
	}
}

// TestClassifyFlagsAllocs: classification reads a chain's node table in
// place — no token copy, no sort — and an outstation's per-server flags
// live on the stack, so the flags of one chain and the verdict over a
// primary and a healthy keep-alive secondary allocate nothing.
func TestClassifyFlagsAllocs(t *testing.T) {
	primary, backup := NewChain(), NewChain()
	primary.Add(toks("I100", "I36", "S", "I36"))
	backup.Add(toks("U16", "U32", "U16", "U32"))
	conns := []ConnSummary{
		{Server: "C1", Outstation: "O5", Chain: primary},
		{Server: "C2", Outstation: "O5", Chain: backup},
		{Server: "C1", Outstation: "O5", Chain: primary},
	}
	var f connFlags
	if allocs := testing.AllocsPerRun(100, func() { f = flagsOf(primary) }); allocs != 0 {
		t.Fatalf("flagsOf allocates %.0f objects", allocs)
	}
	if f != (connFlags{hasI: true, hasI100: true, hasS: true}) {
		t.Fatalf("flags %+v", f)
	}
	var c OutstationClass
	if allocs := testing.AllocsPerRun(100, func() { c = ClassifyOutstation(conns) }); allocs != 0 {
		t.Fatalf("ClassifyOutstation allocates %.0f objects", allocs)
	}
	if c.Type != 2 || c.Connections != 3 {
		t.Fatalf("class %+v, want type 2 over 3 connections", c)
	}
}
