package markov

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
)

// TokenCount is one token's observation count in a ChainState.
type TokenCount struct {
	Token iec104.Token
	Count int
}

// EdgeCount is one transition's observation count in a ChainState.
type EdgeCount struct {
	From, To iec104.Token
	Count    int
}

// ChainState is a Chain's full serializable state: node and edge
// counts in canonical order (sorted by token text). It is the chain's
// own table in a different order, so two chains with equal states are
// identical. Building the same State twice —
// or once before and once after a round trip — yields identical
// values, which is what makes the drift codec's output bit-exact.
type ChainState struct {
	Nodes []TokenCount
	Edges []EdgeCount
}

// State snapshots the chain. The result shares nothing with c.
func (c *Chain) State() ChainState {
	s := ChainState{Nodes: slices.Clone(c.nodes), Edges: slices.Clone(c.edges)}
	sortByText(s.Nodes, func(nc TokenCount) [2]uint64 { return [2]uint64{textKey(nc.Token)} })
	sortByText(s.Edges, func(ec EdgeCount) [2]uint64 { return [2]uint64{textKey(ec.From), textKey(ec.To)} })
	return s
}

// ChainFromState rebuilds a chain from a snapshot. Entries may come in
// any order and repeat (a decoded profile is untrusted input); repeats
// add.
func ChainFromState(s ChainState) *Chain {
	// Grow leaves an empty table nil, as every other empty chain's is.
	c := &Chain{
		nodes: slices.Grow([]TokenCount(nil), len(s.Nodes)),
		edges: slices.Grow([]EdgeCount(nil), len(s.Edges)),
	}
	for _, nc := range s.Nodes {
		c.addNode(nc.Token, nc.Count)
	}
	for _, ec := range s.Edges {
		c.addEdge(ec.From, ec.To, ec.Count)
	}
	return c
}

// StringCount is one string-keyed count in an NGramState.
type StringCount struct {
	Key   string
	Count int
}

// NGramState is an NGram's full serializable state. Counts, contexts
// and vocabulary are kept explicitly (vocabulary covers tokens from
// sequences shorter than the model order, so it is not derivable from
// the gram counts) in sorted order for deterministic encoding.
type NGramState struct {
	N        int
	Counts   []StringCount
	Contexts []StringCount
	Vocab    []string
}

// keyText renders a packed gram key in the state's textual form: the
// tokens' texts joined by single spaces (the empty key — the order-1
// context — is the empty string).
func keyText(k string) string {
	var sb strings.Builder
	for i := 0; i+keyBytes <= len(k); i += keyBytes {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(tokenOf(binary.BigEndian.Uint32([]byte(k[i : i+keyBytes]))).String())
	}
	return sb.String()
}

func sortedCounts(m map[string]int) []StringCount {
	out := make([]StringCount, 0, len(m))
	for k, v := range m {
		out = append(out, StringCount{Key: keyText(k), Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// State snapshots the model. The result shares nothing with m.
func (m *NGram) State() NGramState {
	s := NGramState{
		N:        m.n,
		Counts:   sortedCounts(m.counts),
		Contexts: sortedCounts(m.ctx),
	}
	for t := range m.vocab {
		s.Vocab = append(s.Vocab, t.String())
	}
	sort.Strings(s.Vocab)
	return s
}

// restoreCounts parses a state's textual counts into a packed-key map.
// A decoded state is untrusted input: a token text the grammar rejects,
// or a key that is not exactly n single-spaced tokens, is an error. A
// key listed twice keeps its last count.
func restoreCounts(dst map[string]int, src []StringCount, n int) error {
	for _, c := range src {
		var k []byte
		if c.Key != "" {
			for _, text := range strings.Split(c.Key, " ") {
				t, err := protocol.ParseToken(text)
				if err != nil {
					return fmt.Errorf("markov: gram %q: %w", c.Key, err)
				}
				k = binary.BigEndian.AppendUint32(k, nodeKey(t))
			}
		}
		if len(k) != n*keyBytes {
			return fmt.Errorf("markov: gram %q is not %d tokens", c.Key, n)
		}
		dst[string(k)] = c.Count
	}
	return nil
}

// NGramFromState rebuilds a model from a snapshot. It fails — rather
// than panicking or dropping the entry — on any token text
// protocol.ParseToken rejects.
func NGramFromState(s NGramState) (*NGram, error) {
	m, err := NewNGram(s.N)
	if err != nil {
		return nil, fmt.Errorf("markov: restore n-gram: %w", err)
	}
	if err := restoreCounts(m.counts, s.Counts, m.n); err != nil {
		return nil, err
	}
	if err := restoreCounts(m.ctx, s.Contexts, m.n-1); err != nil {
		return nil, err
	}
	for _, text := range s.Vocab {
		t, err := protocol.ParseToken(text)
		if err != nil {
			return nil, fmt.Errorf("markov: restore n-gram vocabulary: %w", err)
		}
		m.vocab[t] = struct{}{}
	}
	return m, nil
}
