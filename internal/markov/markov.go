// Package markov models APDU token sequences the way the paper does in
// §6.3.1: N-gram language models with maximum-likelihood transition
// probabilities, per-connection Markov chains whose node/edge counts
// reproduce the Fig. 13 scatter, and the eight-way connection-type
// classifier of Table 6 / Fig. 17.
//
// A Chain is a flat count table: one []TokenCount and one []EdgeCount
// (the ChainState element types), each kept sorted by packed token
// value. A connection's chain has a dozen nodes and a few dozen edges,
// so a lookup is a short binary search, a Clone is two appends — which
// is what lets core.Analyzer.Partial hand out a snapshot of a live
// chain at a cost independent of how many tokens it has counted, and
// CloneAll copy every chain of a snapshot into two shared tables — and
// two chains holding the same counts are reflect.DeepEqual whatever
// order they were built or merged in. Out-degrees and the total token
// count are derived from the table, never stored. The position in a
// token stream (the previous token, which the next bigram needs) is
// not the chain's business: it lives in the Cursor its writer holds.
//
// An NGram keys its counts the same way, by value: a gram's key is its
// tokens' packed values (the chain's nodeKey) end to end, four bytes a
// token, whatever the order, built in a stack buffer per lookup. Token
// text appears only in the serialized forms (ChainState, NGramState),
// which keep their sorted textual order so encodings do not change.
package markov

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
)

// Edge is one observed transition with its MLE probability.
type Edge struct {
	From, To iec104.Token
	Count    int
	Prob     float64
}

// Chain is a first-order Markov chain over APDU tokens. The zero value
// is an empty chain.
type Chain struct {
	nodes []TokenCount // sorted by nodeKey
	edges []EdgeCount  // sorted by edgeKey
}

// Cursor is a writer's position in one token stream: the previous
// token, plus memos of where the node and the edge it last bumped sit
// in the table (periodic traffic repeats one token, hence one
// transition, for long runs). A memo is checked against the entry it
// points at before use, so inserts that shift the table only cost it a
// miss. The zero value starts a new sequence.
type Cursor struct {
	prev       iec104.Token
	started    bool
	node, edge int
}

// nodeKey packs a token into its sort key.
func nodeKey(t iec104.Token) uint32 {
	return uint32(t.Proto)<<24 | uint32(t.Kind)<<16 | uint32(t.Code)
}

// tokenOf is nodeKey's inverse.
func tokenOf(k uint32) iec104.Token {
	return iec104.Token{Proto: protocol.ID(k >> 24), Kind: uint8(k >> 16), Code: uint16(k)}
}

// edgeKey packs a transition into its sort key: by source, then target.
func edgeKey(from, to iec104.Token) uint64 {
	return uint64(nodeKey(from))<<32 | uint64(nodeKey(to))
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Clone returns a copy sharing nothing with c.
func (c *Chain) Clone() *Chain {
	return &Chain{nodes: slices.Clone(c.nodes), edges: slices.Clone(c.edges)}
}

// CloneAll returns copies of the n chains chain(0..n-1), sharing nothing
// with them, in three allocations whatever n: one node table, one edge
// table and the []Chain. Each copy's tables are capped at their own
// length, so growing one reallocates it rather than writing into its
// neighbour's. chain is called twice per index.
func CloneAll(n int, chain func(i int) *Chain) []Chain {
	var nNodes, nEdges int
	for i := 0; i < n; i++ {
		c := chain(i)
		nNodes += len(c.nodes)
		nEdges += len(c.edges)
	}
	nodes := make([]TokenCount, 0, nNodes)
	edges := make([]EdgeCount, 0, nEdges)
	out := make([]Chain, n)
	for i := range out {
		c := chain(i)
		out[i] = Chain{nodes: carve(&nodes, c.nodes), edges: carve(&edges, c.edges)}
	}
	return out
}

// carve appends src to *slab and returns the appended part, capped at
// its length — nil for a nil src, as slices.Clone gives.
func carve[E any](slab *[]E, src []E) []E {
	if src == nil {
		return nil
	}
	start := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[start:len(*slab):len(*slab)]
}

// findNode returns the position of the first node whose key is >= k.
// (It and findEdge are written out rather than calling
// slices.BinarySearchFunc: they run per token, and the comparator call
// makes the generic search three times slower on tables this small.)
func (c *Chain) findNode(k uint32) int {
	lo, hi := 0, len(c.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nodeKey(c.nodes[mid].Token) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findEdge returns the position of the first edge whose key is >= k.
func (c *Chain) findEdge(k uint64) int {
	lo, hi := 0, len(c.edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if edgeKey(c.edges[mid].From, c.edges[mid].To) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addNode adds n observations of tok and returns the node's position.
func (c *Chain) addNode(tok iec104.Token, n int) int {
	k := nodeKey(tok)
	i := c.findNode(k)
	if i == len(c.nodes) || nodeKey(c.nodes[i].Token) != k {
		c.nodes = slices.Insert(c.nodes, i, TokenCount{Token: tok})
	}
	c.nodes[i].Count += n
	return i
}

// addEdge adds n observations of from→to and returns the edge's
// position.
func (c *Chain) addEdge(from, to iec104.Token, n int) int {
	k := edgeKey(from, to)
	i := c.findEdge(k)
	if i == len(c.edges) || edgeKey(c.edges[i].From, c.edges[i].To) != k {
		c.edges = slices.Insert(c.edges, i, EdgeCount{From: from, To: to})
	}
	c.edges[i].Count += n
	return i
}

// Observe counts the next token of the stream cur follows: the token
// itself and, unless it opens the sequence, its transition from the
// previous one.
func (c *Chain) Observe(cur *Cursor, tok iec104.Token) {
	if i := cur.node; i < len(c.nodes) && c.nodes[i].Token == tok {
		c.nodes[i].Count++
	} else {
		cur.node = c.addNode(tok, 1)
	}
	if cur.started {
		if i := cur.edge; i < len(c.edges) && c.edges[i].From == cur.prev && c.edges[i].To == tok {
			c.edges[i].Count++
		} else {
			cur.edge = c.addEdge(cur.prev, tok, 1)
		}
	}
	cur.prev, cur.started = tok, true
}

// Add extends the chain with a token sequence. Sequences added
// separately are not stitched together (no cross-sequence bigram).
func (c *Chain) Add(seq []iec104.Token) {
	var cur Cursor
	for _, tok := range seq {
		c.Observe(&cur, tok)
	}
}

// Merge folds another chain's counts into c: node and edge counts add.
// Sequences observed separately stay unstitched — no cross-chain
// bigram is invented, matching Add's semantics.
func (c *Chain) Merge(o *Chain) {
	if o == nil {
		return
	}
	for _, nc := range o.nodes {
		c.addNode(nc.Token, nc.Count)
	}
	for _, ec := range o.edges {
		c.addEdge(ec.From, ec.To, ec.Count)
	}
}

// Nodes returns the number of distinct tokens observed.
func (c *Chain) Nodes() int { return len(c.nodes) }

// Edges returns the number of distinct transitions observed.
func (c *Chain) Edges() int { return len(c.edges) }

// Tokens returns the distinct tokens in canonical order.
func (c *Chain) Tokens() []iec104.Token {
	out := make([]iec104.Token, len(c.nodes))
	for i, nc := range c.nodes {
		out[i] = nc.Token
	}
	iec104.SortTokens(out)
	return out
}

// TotalTokens returns the number of token observations.
func (c *Chain) TotalTokens() int {
	n := 0
	for _, nc := range c.nodes {
		n += nc.Count
	}
	return n
}

// Count returns how often token t was observed.
func (c *Chain) Count(t iec104.Token) int {
	if i := c.findNode(nodeKey(t)); i < len(c.nodes) && c.nodes[i].Token == t {
		return c.nodes[i].Count
	}
	return 0
}

// outgoing returns the edges leaving from — one contiguous run of the
// table — and their summed count, the out-degree C(from,·).
func (c *Chain) outgoing(from iec104.Token) ([]EdgeCount, int) {
	lo := c.findEdge(edgeKey(from, iec104.Token{}))
	hi, total := lo, 0
	for hi < len(c.edges) && c.edges[hi].From == from {
		total += c.edges[hi].Count
		hi++
	}
	return c.edges[lo:hi], total
}

// Prob returns the MLE transition probability P(to | from), equation
// (2) of the paper: C(from,to) / C(from,·).
func (c *Chain) Prob(from, to iec104.Token) float64 {
	run, total := c.outgoing(from)
	for _, ec := range run {
		if ec.To == to {
			return mle(ec.Count, total)
		}
	}
	return 0
}

func mle(count, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// EdgeList returns every transition sorted by (from, to) in textual
// token order.
func (c *Chain) EdgeList() []Edge {
	var out []Edge
	for i := 0; i < len(c.edges); {
		run, total := c.outgoing(c.edges[i].From)
		for _, ec := range run {
			out = append(out, Edge{From: ec.From, To: ec.To, Count: ec.Count, Prob: mle(ec.Count, total)})
		}
		i += len(run)
	}
	sortByText(out, func(e Edge) [2]uint64 { return [2]uint64{textKey(e.From), textKey(e.To)} })
	return out
}

// textKey packs a token's textual form into an integer that orders
// exactly as the string does: its bytes big-endian, zero-padded. Every
// grammar renders in at most six bytes (a one- to three-letter prefix,
// a uint16 in decimal), which TestTextKeyOrdersLikeString sweeps.
func textKey(t iec104.Token) uint64 {
	var k uint64
	s := t.String()
	for i := 0; i < 8; i++ {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// byText sorts xs by a pair of text keys held beside them.
type byText[E any] struct {
	xs   []E
	keys [][2]uint64
}

func (b byText[E]) Len() int { return len(b.xs) }
func (b byText[E]) Less(i, j int) bool {
	if b.keys[i][0] != b.keys[j][0] {
		return b.keys[i][0] < b.keys[j][0]
	}
	return b.keys[i][1] < b.keys[j][1]
}
func (b byText[E]) Swap(i, j int) {
	b.xs[i], b.xs[j] = b.xs[j], b.xs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// sortByText orders xs by the text keys key returns, rendering each
// element's once. The textual order is the drift codec's and every
// report's canonical order.
func sortByText[E any](xs []E, key func(E) [2]uint64) {
	keys := make([][2]uint64, len(xs))
	for i, x := range xs {
		keys[i] = key(x)
	}
	sort.Sort(byText[E]{xs: xs, keys: keys})
}

// Has reports whether the token appears in the chain.
func (c *Chain) Has(t iec104.Token) bool { return c.Count(t) > 0 }

// HasInterrogation reports whether the chain contains I100 — the
// discriminator of the Fig. 13 ellipse.
func (c *Chain) HasInterrogation() bool { return c.Has(iec104.TokenInterro) }

// IsPoint11 reports whether the chain sits at Fig. 13's point (1,1):
// a single node with a self-edge — the repeated unanswered U16 of the
// reset backup connections (Fig. 14). A capture so short it caught
// only one unanswered U16 (one node, zero edges) counts too: the
// defining symptom is "nothing but TESTFR act".
func (c *Chain) IsPoint11() bool {
	if c.Nodes() != 1 || c.Edges() > 1 {
		return false
	}
	return c.Has(iec104.TokenTestFRAct)
}

// String renders a compact dot-like description for reports.
func (c *Chain) String() string {
	var b strings.Builder
	for _, e := range c.EdgeList() {
		fmt.Fprintf(&b, "%s->%s(%.2f) ", e.From, e.To, e.Prob)
	}
	return strings.TrimSpace(b.String())
}

// SizeCluster buckets a connection for the Fig. 13 scatter.
type SizeCluster int

// Fig. 13 regions.
const (
	ClusterPoint11 SizeCluster = iota // abnormal reset backups
	ClusterSquare                     // regular chains without interrogation
	ClusterEllipse                    // chains containing I100
)

func (s SizeCluster) String() string {
	switch s {
	case ClusterPoint11:
		return "point(1,1)"
	case ClusterSquare:
		return "square"
	default:
		return "ellipse"
	}
}

// Classify11SquareEllipse places a chain in its Fig. 13 region.
func Classify11SquareEllipse(c *Chain) SizeCluster {
	switch {
	case c.IsPoint11():
		return ClusterPoint11
	case c.HasInterrogation():
		return ClusterEllipse
	default:
		return ClusterSquare
	}
}
