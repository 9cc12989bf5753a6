package drift

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/ids"
	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/physical"
	"uncharted/internal/tcpflow"
)

// seedProfile builds a tiny handcrafted profile exercising every
// payload section, so the fuzz corpus starts from structurally valid
// bytes rather than relying on the fuzzer to discover the framing.
func seedProfile() *Profile {
	ch := markov.NewChain()
	ch.Add([]iec104.Token{iec104.TokenStartDTAct, iec104.TokenStartDTCon, iec104.TokenInterro, iec104.TokenS})
	base := time.Date(2017, 11, 7, 9, 0, 0, 0, time.UTC)
	p := core.Partial{
		Packets:    42,
		IECPackets: 40,
		First:      base,
		Last:       base.Add(90 * time.Second),
		Flows: tcpflow.Summary{
			ShortLived: 2, ShortLivedSubSec: 1, ShortLivedOverSec: 1, LongLived: 1,
			ShortLivedDuration: []time.Duration{120 * time.Millisecond, 3 * time.Second},
		},
		Compliance: []core.StationCompliance{{
			Addr: netip.MustParseAddr("10.0.1.30"), Name: "O30", Frames: 40,
			StrictInvalid: 2, Profile: iec104.LegacyCOT, Detected: true,
		}},
		TypeCounts: map[iec104.TypeID]int{iec104.MMeTf: 30, iec104.CIcNa: 2},
		TotalASDUs: 32,
		Chains: []core.ConnChain{{
			Key: core.ConnKey{
				Server:     netip.MustParseAddr("10.0.0.2"),
				Outstation: netip.MustParseAddr("10.0.1.30"),
			},
			Server: "C2", Outstation: "O30", Chain: ch,
		}},
		Features: []core.SessionFeature{{
			Src: "C2", Dst: "O30", DeltaT: 30, Num: 40, PctI: 0.8, PctS: 0.1, PctU: 0.1,
		}},
		Physical: []physical.Digest{{
			Key: physical.SeriesKey{Station: "O30", IOA: 1201}, Type: physical.IEC104Type(iec104.MMeTf),
			Count: 30, Min: 59.9, Max: 60.1, Mean: 60.0, M2: 0.01,
			First: base, Last: base.Add(80 * time.Second),
		}},
		OtherPorts: map[uint16]int{443: 10},
	}
	return NewProfile("seed", "handcrafted", p, base.Add(time.Hour))
}

// FuzzDecodeProfile drives the container and payload decoders with
// arbitrary bytes. The decoder must never panic or over-allocate, and
// anything it accepts must re-encode stably (encode(decode(x)) is a
// fixed point).
func FuzzDecodeProfile(f *testing.F) {
	valid := seedProfile().Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:len(valid)/2])
	truncTail := append([]byte(nil), valid[:len(valid)-2]...)
	f.Add(truncTail)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return
		}
		first := p.Encode()
		p2, err := DecodeProfile(first)
		if err != nil {
			t.Fatalf("re-decode of accepted profile failed: %v", err)
		}
		if second := p2.Encode(); !bytes.Equal(first, second) {
			t.Fatalf("encode(decode(x)) is not a fixed point: %d vs %d bytes", len(first), len(second))
		}
	})
}

// TestSeedProfileRoundTrips keeps the fuzz seed itself honest under
// `go test` (the fuzz target only runs seeds in fuzz mode -run).
func TestSeedProfileRoundTrips(t *testing.T) {
	p := seedProfile()
	first := p.Encode()
	decoded, err := DecodeProfile(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(first, decoded.Encode()) {
		t.Fatal("seed profile does not round trip bit-exactly")
	}
}

// seedBaseline builds a tiny handcrafted whitelist exercising every
// section of the baseline container.
func seedBaseline(t testing.TB) *ids.Baseline {
	t.Helper()
	b, err := ids.BaselineFromState(ids.BaselineState{
		Endpoints: []netip.Addr{netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.1.30")},
		Conns:     []ids.ConnVocab{{Server: "C2", Outstation: "O30", Tokens: []string{"I100", "I36", "S", "U1", "U2"}}},
		Bigram: markov.NGramState{
			N:        2,
			Counts:   []markov.StringCount{{Key: "I100 I36", Count: 1}, {Key: "I36 S", Count: 4}, {Key: "U1 U2", Count: 1}, {Key: "U2 I100", Count: 1}},
			Contexts: []markov.StringCount{{Key: "I100", Count: 1}, {Key: "I36", Count: 4}, {Key: "U1", Count: 1}, {Key: "U2", Count: 1}},
			Vocab:    []string{"I100", "I36", "S", "U1", "U2"},
		},
		Points: []ids.PointRange{{Station: "O30", IOA: 1201, Min: 59.9, Max: 60.1,
			Type: physical.IEC104Type(iec104.MMeTf), Samples: 30}},
		Profiles:         []ids.StationProfile{{Name: "O30", Profile: iec104.LegacyCOT}},
		Rates:            []ids.ConnRate{{Server: "C2", Outstation: "O30", Rate: 0.02}},
		PerplexityFactor: 2, RangeMargin: 0.25, WorstPerplexity: 2.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeBaseline drives the baseline container decoder — and behind
// it the token parsing of ids.BaselineFromState and
// markov.NGramFromState — with arbitrary bytes. It must never panic,
// and a whitelist it accepts must re-encode stably.
func FuzzDecodeBaseline(f *testing.F) {
	valid := EncodeBaseline(seedBaseline(f))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:len(valid)/2])
	f.Add(append([]byte(nil), valid[:len(valid)-2]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add(garbageVocabToken(f, valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBaseline(data)
		if err != nil {
			return
		}
		first := EncodeBaseline(b)
		b2, err := DecodeBaseline(first)
		if err != nil {
			t.Fatalf("re-decode of accepted baseline failed: %v", err)
		}
		if second := EncodeBaseline(b2); !bytes.Equal(first, second) {
			t.Fatalf("encode(decode(x)) is not a fixed point: %d vs %d bytes", len(first), len(second))
		}
	})
}

// garbageVocabToken returns valid with the vocabulary token "I100"
// overwritten by same-length garbage and the container resealed, so the
// damage reaches the token parser instead of failing the checksum.
func garbageVocabToken(t testing.TB, valid []byte) []byte {
	t.Helper()
	payload, version, err := unseal(valid, KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(payload, []byte("I100"))
	if at < 0 {
		t.Fatal("seed baseline payload has no I100 token")
	}
	bad := append([]byte(nil), payload...)
	copy(bad[at:], "\xffQ!\x00")
	return seal(KindBaseline, version, bad)
}

// TestSeedBaselineDecodes keeps the fuzz seeds honest under plain
// `go test`: the valid seed round-trips bit-exactly, and the seed with
// one garbage vocabulary token is rejected with an error.
func TestSeedBaselineDecodes(t *testing.T) {
	valid := EncodeBaseline(seedBaseline(t))
	b, err := DecodeBaseline(valid)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(valid, EncodeBaseline(b)) {
		t.Fatal("seed baseline does not round trip bit-exactly")
	}
	if b, err := DecodeBaseline(garbageVocabToken(t, valid)); err == nil {
		t.Fatalf("baseline with a garbage vocabulary token accepted: %+v", b.State().Conns)
	}
}
