package markov

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"uncharted/internal/iec104"
)

// NGram is an order-n language model over APDU tokens with maximum
// likelihood estimation (the paper's equations (1) and (2)) and
// optional add-one smoothing for scoring unseen sequences.
//
// Counts are keyed by value, never by text: a gram's key is its
// tokens' packed values (nodeKey, big endian) end to end, four bytes
// per token, so its context's key is that key less its last four bytes.
// A lookup packs the key into a stack buffer and indexes the map with
// it directly — no string is built, so scoring allocates nothing. The
// textual form ("I13 S") exists only in State and NGramFromState.
type NGram struct {
	n      int
	counts map[string]int // n-gram joint counts, by packed key
	ctx    map[string]int // (n-1)-gram context counts, by packed key
	vocab  map[iec104.Token]struct{}
}

// keyBytes is one token's share of a packed key; stackKey is the
// scratch a lookup packs into (grams longer than 8 spill to the heap).
const (
	keyBytes = 4
	stackKey = 8 * keyBytes
)

var errNotBigram = errors.New("markov: a chain holds bigram counts; the model is not of order 2")

// NewNGram builds an empty model of order n (n >= 1).
func NewNGram(n int) (*NGram, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: n-gram order %d < 1", n)
	}
	return &NGram{
		n:      n,
		counts: make(map[string]int),
		ctx:    make(map[string]int),
		vocab:  make(map[iec104.Token]struct{}),
	}, nil
}

// appendKey packs gram onto dst.
func appendKey(dst []byte, gram []iec104.Token) []byte {
	for _, t := range gram {
		dst = binary.BigEndian.AppendUint32(dst, nodeKey(t))
	}
	return dst
}

// Train adds one token sequence to the model.
func (m *NGram) Train(seq []iec104.Token) {
	for _, t := range seq {
		m.vocab[t] = struct{}{}
	}
	var buf [stackKey]byte
	for i := 0; i+m.n <= len(seq); i++ {
		k := appendKey(buf[:0], seq[i:i+m.n])
		m.counts[string(k)]++
		m.ctx[string(k[:len(k)-keyBytes])]++
	}
}

// TrainChain adds the token stream a chain has counted, as an order-2
// Train of that stream would: a bigram's counts are the chain's edges,
// its vocabulary the chain's nodes.
func (m *NGram) TrainChain(c *Chain) error {
	if m.n != 2 {
		return errNotBigram
	}
	for _, nc := range c.nodes {
		m.vocab[nc.Token] = struct{}{}
	}
	var buf [stackKey]byte
	for _, ec := range c.edges {
		k := appendKey(buf[:0], []iec104.Token{ec.From, ec.To})
		m.counts[string(k)] += ec.Count
		m.ctx[string(k[:keyBytes])] += ec.Count
	}
	return nil
}

// VocabSize returns the number of distinct tokens seen.
func (m *NGram) VocabSize() int { return len(m.vocab) }

// lookup returns the joint count of gram and the count of its context.
func (m *NGram) lookup(gram []iec104.Token) (joint, context int, err error) {
	if len(gram) != m.n {
		return 0, 0, fmt.Errorf("markov: gram length %d, model order %d", len(gram), m.n)
	}
	var buf [stackKey]byte
	k := appendKey(buf[:0], gram)
	return m.counts[string(k)], m.ctx[string(k[:len(k)-keyBytes])], nil
}

// Prob returns the MLE conditional probability of the last token of
// gram given its n-1 predecessors. gram must have length n.
func (m *NGram) Prob(gram []iec104.Token) (float64, error) {
	joint, c, err := m.lookup(gram)
	if err != nil || c == 0 {
		return 0, err
	}
	return float64(joint) / float64(c), nil
}

// SmoothedProb is Prob with add-one (Laplace) smoothing, usable for
// scoring sequences containing unseen transitions.
func (m *NGram) SmoothedProb(gram []iec104.Token) (float64, error) {
	joint, c, err := m.lookup(gram)
	if err != nil {
		return 0, err
	}
	v := len(m.vocab)
	if v == 0 {
		return 0, fmt.Errorf("markov: empty model")
	}
	return (float64(joint) + 1) / (float64(c) + float64(v)), nil
}

// SequenceLogProb scores a whole sequence via the chain rule (the
// paper's equation (1)) using smoothed probabilities, returning the
// natural-log probability.
func (m *NGram) SequenceLogProb(seq []iec104.Token) (float64, error) {
	if len(seq) < m.n {
		return 0, fmt.Errorf("markov: sequence shorter than model order")
	}
	var lp float64
	for i := 0; i+m.n <= len(seq); i++ {
		p, err := m.SmoothedProb(seq[i : i+m.n])
		if err != nil {
			return 0, err
		}
		if p == 0 {
			return math.Inf(-1), nil
		}
		lp += math.Log(p)
	}
	return lp, nil
}

// Perplexity returns exp(-logprob / #grams) for a sequence: lower
// means the sequence looks more like the training traffic. This is the
// anomaly score a whitelisting IDS would use (the paper's future-work
// direction).
func (m *NGram) Perplexity(seq []iec104.Token) (float64, error) {
	lp, err := m.SequenceLogProb(seq)
	if err != nil {
		return 0, err
	}
	grams := len(seq) - m.n + 1
	return math.Exp(-lp / float64(grams)), nil
}

// PerplexityChain is Perplexity of the token stream a chain has
// counted, under an order-2 model: the log-probabilities summed per
// edge, weighted by its count, instead of per arrival.
func (m *NGram) PerplexityChain(c *Chain) (float64, error) {
	if m.n != 2 {
		return 0, errNotBigram
	}
	if len(c.edges) == 0 {
		return 0, fmt.Errorf("markov: sequence shorter than model order")
	}
	var lp float64
	grams := 0
	for _, ec := range c.edges {
		p, err := m.SmoothedProb([]iec104.Token{ec.From, ec.To})
		if err != nil {
			return 0, err
		}
		lp += float64(ec.Count) * math.Log(p)
		grams += ec.Count
	}
	return math.Exp(-lp / float64(grams)), nil
}
