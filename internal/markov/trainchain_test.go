package markov_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"uncharted/internal/iec104"
	"uncharted/internal/markov"
)

// chainCases calls f with seeded random token streams and the chain
// that counted each: lengths 0, 1, 2, 3 and up to 5 000, alphabets of
// 1 to 40 tokens (an alphabet of one is a stream of one repeated
// token).
func chainCases(t *testing.T, f func(label string, seq []iec104.Token, c *markov.Chain)) {
	t.Helper()
	rng := rand.New(rand.NewSource(20200327))
	lengths := []int{0, 1, 2, 3, 4, 7, 50, 1000, 5000}
	for n := 0; n < 300; n++ {
		length := rng.Intn(400)
		if n < 4*len(lengths) {
			length = lengths[n%len(lengths)]
		}
		var alphabet []iec104.Token
		for size := 1 + rng.Intn(40); len(alphabet) < size; {
			tok := randomToken(rng)
			if !containsToken(alphabet, tok) {
				alphabet = append(alphabet, tok)
			}
		}
		seq := make([]iec104.Token, length)
		for i := range seq {
			seq[i] = alphabet[rng.Intn(len(alphabet))]
		}
		c := markov.NewChain()
		c.Add(seq)
		f(fmt.Sprintf("case %d (%d tokens over %d)", n, length, len(alphabet)), seq, c)
	}
}

func containsToken(toks []iec104.Token, tok iec104.Token) bool {
	for _, t := range toks {
		if t == tok {
			return true
		}
	}
	return false
}

func bigram(t *testing.T) *markov.NGram {
	t.Helper()
	m, err := markov.NewNGram(2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTrainChainMatchesTrain: a bigram model trained from the chains
// that counted a set of streams is, field for field, the model trained
// from the streams — a chain's edges are a stream's bigram counts and
// its nodes the stream's vocabulary — and only an order-2 model
// accepts a chain.
func TestTrainChainMatchesTrain(t *testing.T) {
	fromSeqs, fromChains := bigram(t), bigram(t)
	chainCases(t, func(label string, seq []iec104.Token, c *markov.Chain) {
		alone, aloneChain := bigram(t), bigram(t)
		alone.Train(seq)
		fromSeqs.Train(seq)
		if err := aloneChain.TrainChain(c); err != nil {
			t.Fatal(err)
		}
		if err := fromChains.TrainChain(c); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(aloneChain, alone) {
			t.Fatalf("%s: TrainChain built %+v, Train %+v", label, aloneChain.State(), alone.State())
		}
		if !reflect.DeepEqual(fromChains, fromSeqs) {
			t.Fatalf("%s: the accumulated models diverged", label)
		}
	})
	for _, order := range []int{1, 3} {
		m, err := markov.NewNGram(order)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.TrainChain(markov.NewChain()); err == nil {
			t.Errorf("an order-%d model accepted a chain", order)
		}
		if _, err := m.PerplexityChain(markov.NewChain()); err == nil {
			t.Errorf("an order-%d model scored a chain", order)
		}
	}
}

// TestPerplexityChainMatchesPerplexity: scoring a chain — the
// log-probabilities summed per edge, weighted by its count — gives the
// perplexity scoring the stream gives, to 1e-12 relative, against
// models that have and have not seen the stream, and fails on exactly
// the inputs Perplexity fails on (a stream with no bigram, an empty
// model).
func TestPerplexityChainMatchesPerplexity(t *testing.T) {
	empty, trained := bigram(t), bigram(t)
	chainCases(t, func(label string, seq []iec104.Token, c *markov.Chain) {
		self := bigram(t)
		self.Train(seq)
		for name, m := range map[string]*markov.NGram{"empty": empty, "self": self, "others": trained} {
			want, wantErr := m.Perplexity(seq)
			got, gotErr := m.PerplexityChain(c)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s, %s model: Perplexity error %v, PerplexityChain error %v", label, name, wantErr, gotErr)
			}
			if wantErr != nil {
				if len(seq) >= 2 && m.VocabSize() > 0 {
					t.Fatalf("%s, %s model: a scorable stream failed: %v", label, name, wantErr)
				}
				continue
			}
			if math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%s, %s model: chain perplexity %v, stream perplexity %v", label, name, got, want)
			}
		}
		trained.Train(seq)
	})
}
