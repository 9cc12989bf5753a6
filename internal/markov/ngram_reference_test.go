package markov_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uncharted/internal/iec104"
	"uncharted/internal/markov"
)

// refNGram is the string-keyed n-gram model the package used before
// the packed-token key, kept as the reference the value-keyed model is
// proven against: every lookup renders each token and joins the texts.
type refNGram struct {
	n      int
	counts map[string]int
	ctx    map[string]int
	vocab  map[string]bool
}

func newRefNGram(n int) *refNGram {
	return &refNGram{n: n, counts: map[string]int{}, ctx: map[string]int{}, vocab: map[string]bool{}}
}

func refKey(toks []iec104.Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

func (m *refNGram) train(seq []iec104.Token) {
	for _, t := range seq {
		m.vocab[t.String()] = true
	}
	for i := 0; i+m.n <= len(seq); i++ {
		gram := seq[i : i+m.n]
		m.counts[refKey(gram)]++
		m.ctx[refKey(gram[:m.n-1])]++
	}
}

func (m *refNGram) prob(gram []iec104.Token) float64 {
	c := m.ctx[refKey(gram[:m.n-1])]
	if c == 0 {
		return 0
	}
	return float64(m.counts[refKey(gram)]) / float64(c)
}

func (m *refNGram) smoothedProb(gram []iec104.Token) float64 {
	c := m.ctx[refKey(gram[:m.n-1])]
	return (float64(m.counts[refKey(gram)]) + 1) / (float64(c) + float64(len(m.vocab)))
}

func (m *refNGram) sequenceLogProb(seq []iec104.Token) float64 {
	var lp float64
	for i := 0; i+m.n <= len(seq); i++ {
		lp += math.Log(m.smoothedProb(seq[i : i+m.n]))
	}
	return lp
}

func (m *refNGram) perplexity(seq []iec104.Token) float64 {
	return math.Exp(-m.sequenceLogProb(seq) / float64(len(seq)-m.n+1))
}

func refSortedCounts(m map[string]int) []markov.StringCount {
	out := make([]markov.StringCount, 0, len(m))
	for k, v := range m {
		out = append(out, markov.StringCount{Key: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func (m *refNGram) state() markov.NGramState {
	s := markov.NGramState{N: m.n, Counts: refSortedCounts(m.counts), Contexts: refSortedCounts(m.ctx)}
	for t := range m.vocab {
		s.Vocab = append(s.Vocab, t)
	}
	sort.Strings(s.Vocab)
	return s
}

// TestNGramMatchesStringKeyedReference: at orders 1–3, on seeded random
// cross-dialect training sets, the value-keyed model returns the same
// float64 bits as the string-keyed reference from Prob, SmoothedProb,
// SequenceLogProb and Perplexity — on trained and on unseen sequences —
// and its State is the reference's sorted textual state, before and
// after a round trip through NGramFromState.
func TestNGramMatchesStringKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20200327))
	randomSeq := func(max int) []iec104.Token {
		seq := make([]iec104.Token, rng.Intn(max))
		for i := range seq {
			seq[i] = randomToken(rng)
		}
		return seq
	}
	same := func(label string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%#x), reference %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for order := 1; order <= 3; order++ {
		for n := 0; n < 200; n++ {
			label := fmt.Sprintf("order %d, model %d", order, n)
			m, err := markov.NewNGram(order)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefNGram(order)
			for p := rng.Intn(5); p >= 0; p-- {
				seq := randomSeq(80) // some shorter than the order: vocabulary only
				m.Train(seq)
				ref.train(seq)
			}
			if m.VocabSize() != len(ref.vocab) {
				t.Fatalf("%s: vocabulary %d, reference %d", label, m.VocabSize(), len(ref.vocab))
			}
			if g, w := m.State(), ref.state(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: State\n got %+v\nwant %+v", label, g, w)
			}
			restored, err := markov.NGramFromState(m.State())
			if err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			if !reflect.DeepEqual(restored, m) {
				t.Fatalf("%s: model restored from its State differs", label)
			}
			if len(ref.vocab) == 0 {
				if _, err := m.SmoothedProb(make([]iec104.Token, order)); err == nil {
					t.Fatalf("%s: empty model scored a gram", label)
				}
				continue
			}
			for q := 0; q < 20; q++ {
				seq := randomSeq(300)
				if len(seq) < order {
					continue
				}
				for i := 0; i+order <= len(seq) && i < 40; i++ {
					gram := seq[i : i+order]
					p, err := m.Prob(gram)
					if err != nil {
						t.Fatal(err)
					}
					same(label+" Prob", p, ref.prob(gram))
					sp, err := m.SmoothedProb(gram)
					if err != nil {
						t.Fatal(err)
					}
					same(label+" SmoothedProb", sp, ref.smoothedProb(gram))
				}
				lp, err := m.SequenceLogProb(seq)
				if err != nil {
					t.Fatal(err)
				}
				same(label+" SequenceLogProb", lp, ref.sequenceLogProb(seq))
				pp, err := m.Perplexity(seq)
				if err != nil {
					t.Fatal(err)
				}
				same(label+" Perplexity", pp, ref.perplexity(seq))
			}
		}
	}
}

// TestNGramFromStateRejectsBadTokens: a decoded state is untrusted
// input. A token text the grammar rejects, or a key with the wrong
// number of tokens for the model's order, is an error — never a panic
// and never a silently dropped entry.
func TestNGramFromStateRejectsBadTokens(t *testing.T) {
	good := markov.NGramState{
		N:        2,
		Counts:   []markov.StringCount{{Key: "I13 S", Count: 2}},
		Contexts: []markov.StringCount{{Key: "I13", Count: 2}},
		Vocab:    []string{"I13", "S"},
	}
	if _, err := markov.NGramFromState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for name, mutate := range map[string]func(*markov.NGramState){
		"garbage vocabulary token": func(s *markov.NGramState) { s.Vocab = []string{"I13", "\xff\x00garbage"} },
		"empty vocabulary token":   func(s *markov.NGramState) { s.Vocab = []string{""} },
		"garbage token in a gram":  func(s *markov.NGramState) { s.Counts = []markov.StringCount{{Key: "I13 Q9", Count: 1}} },
		"gram one token short":     func(s *markov.NGramState) { s.Counts = []markov.StringCount{{Key: "I13", Count: 1}} },
		"gram one token long":      func(s *markov.NGramState) { s.Counts = []markov.StringCount{{Key: "I13 S S", Count: 1}} },
		"double space in a gram":   func(s *markov.NGramState) { s.Counts = []markov.StringCount{{Key: "I13  S", Count: 1}} },
		"context of two tokens":    func(s *markov.NGramState) { s.Contexts = []markov.StringCount{{Key: "I13 S", Count: 1}} },
		"empty context at order 2": func(s *markov.NGramState) { s.Contexts = []markov.StringCount{{Key: "", Count: 1}} },
		"out-of-range type id":     func(s *markov.NGramState) { s.Vocab = []string{"I999"} },
		"order zero":               func(s *markov.NGramState) { s.N = 0 },
	} {
		s := good
		mutate(&s)
		if m, err := markov.NGramFromState(s); err == nil {
			t.Errorf("%s: accepted (state %+v)", name, m.State())
		}
	}
	// Order 1 has the empty context, spelled as the empty key.
	uni := markov.NGramState{N: 1, Counts: []markov.StringCount{{Key: "S", Count: 3}},
		Contexts: []markov.StringCount{{Key: "", Count: 3}}, Vocab: []string{"S"}}
	m, err := markov.NGramFromState(uni)
	if err != nil {
		t.Fatalf("unigram state rejected: %v", err)
	}
	if !reflect.DeepEqual(m.State(), uni) {
		t.Fatalf("unigram state did not round-trip: %+v", m.State())
	}
}

// TestNGramScoringAllocs: a lookup packs its key into a stack buffer and
// indexes the count maps with it directly, so scoring a sequence
// allocates nothing at any order the packed key fits on the stack.
func TestNGramScoringAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := make([]iec104.Token, 256)
	for i := range seq {
		seq[i] = randomToken(rng)
	}
	for order := 1; order <= 3; order++ {
		m, err := markov.NewNGram(order)
		if err != nil {
			t.Fatal(err)
		}
		m.Train(seq[:128])
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.Perplexity(seq); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("order %d: Perplexity allocates %.1f per 256-token sequence, want 0", order, allocs)
		}
	}
}
