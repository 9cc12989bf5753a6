package historian

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uncharted/internal/physical"
)

var updateGolden = flag.Bool("update", false, "rewrite golden block files")

// goldenBase is the first timestamp of every golden case.
var goldenBase = time.Date(2019, 6, 1, 12, 0, 0, 0, time.UTC)

// deadbandSamples models deadband-reported telemetry: fixed 4 s
// cadence, float32-precision values quantized to 0.01 so consecutive
// reports often repeat — the shape IEC 104 M_ME_NC points actually
// have, and the one the ≥8x compression claim is made on.
func deadbandSamples(n int) []physical.Sample {
	out := make([]physical.Sample, n)
	for i := range out {
		v := float64(float32(math.Round((60+0.02*math.Sin(float64(i)/20))*100) / 100))
		out[i] = physical.Sample{T: goldenBase.Add(time.Duration(i) * 4 * time.Second), V: v}
	}
	return out
}

// goldenCases are deterministic sample sets covering the codec's
// branches: regular cadence (dod==0 fast path), jittered cadence
// (16/32-bit dod buckets), large gaps (64-bit dod), constant values,
// slowly drifting floats (window reuse), NaN/Inf, and out-of-order
// timestamps.
func goldenCases() map[string][]physical.Sample {
	base := goldenBase
	rng := rand.New(rand.NewSource(42))
	cases := map[string][]physical.Sample{}

	cases["regular"] = deadbandSamples(200)

	jitter := make([]physical.Sample, 200)
	t := base
	for i := range jitter {
		t = t.Add(4*time.Second + time.Duration(rng.Intn(2000)-1000)*time.Millisecond)
		jitter[i] = physical.Sample{T: t, V: 345.0 + rng.Float64()}
	}
	cases["jitter"] = jitter

	gaps := []physical.Sample{
		{T: base, V: 1},
		{T: base.Add(time.Second), V: 1},
		{T: base.Add(90 * 24 * time.Hour), V: 2}, // ~2^52 ns dod: 64-bit bucket
		{T: base.Add(90*24*time.Hour + time.Second), V: 2},
		{T: base.Add(180 * 24 * time.Hour), V: 3},
	}
	cases["gaps"] = gaps

	constant := make([]physical.Sample, 100)
	for i := range constant {
		constant[i] = physical.Sample{T: base.Add(time.Duration(i) * time.Second), V: 118.5}
	}
	cases["constant"] = constant

	special := []physical.Sample{
		{T: base, V: 0},
		{T: base.Add(1 * time.Second), V: math.NaN()},
		{T: base.Add(2 * time.Second), V: math.Inf(1)},
		{T: base.Add(3 * time.Second), V: math.Inf(-1)},
		{T: base.Add(4 * time.Second), V: math.Copysign(0, -1)},
		{T: base.Add(5 * time.Second), V: math.SmallestNonzeroFloat64},
		{T: base.Add(6 * time.Second), V: math.MaxFloat64},
	}
	cases["special"] = special

	outOfOrder := []physical.Sample{
		{T: base.Add(10 * time.Second), V: 5},
		{T: base.Add(2 * time.Second), V: 6},
		{T: base.Add(30 * time.Second), V: 7},
		{T: base.Add(2 * time.Second), V: 8}, // duplicate timestamp
		{T: base, V: 9},
	}
	cases["out-of-order"] = outOfOrder

	return cases
}

func sampleEqual(a, b physical.Sample) bool {
	return a.T.Equal(b.T) && math.Float64bits(a.V) == math.Float64bits(b.V)
}

func assertSamplesEqual(t *testing.T, got, want []physical.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if !sampleEqual(got[i], want[i]) {
			t.Fatalf("sample %d: got %v/%x, want %v/%x",
				i, got[i].T, math.Float64bits(got[i].V), want[i].T, math.Float64bits(want[i].V))
		}
	}
}

// TestBlockRoundTrip checks decode(encode(s)) == s bit-exactly,
// including NaN, ±Inf and out-of-order timestamps.
func TestBlockRoundTrip(t *testing.T) {
	for name, samples := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			payload := EncodeBlock(samples)
			got, err := DecodeBlock(payload)
			if err != nil {
				t.Fatal(err)
			}
			assertSamplesEqual(t, got, samples)
			ratio := float64(len(samples)*rawSampleBytes) / float64(len(payload))
			t.Logf("%d samples -> %d bytes (%.1fx)", len(samples), len(payload), ratio)
		})
	}
}

// TestBlockRoundTripRandom hammers the codec with random walks.
func TestBlockRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Unix(0, 1560000000000000000)
	for iter := 0; iter < 50; iter++ {
		n := rng.Intn(500)
		samples := make([]physical.Sample, n)
		ts := base
		v := rng.NormFloat64() * 100
		for i := range samples {
			ts = ts.Add(time.Duration(rng.Int63n(10e9)))
			v += rng.NormFloat64()
			samples[i] = physical.Sample{T: ts, V: v}
		}
		payload := EncodeBlock(samples)
		got, err := DecodeBlock(payload)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		assertSamplesEqual(t, got, samples)
	}
}

// TestBlockGolden pins the on-disk bit format: encoded payloads must
// match the committed golden files byte-for-byte (a format change
// silently breaking old archives fails here), and the golden bytes
// must decode to the original samples.
func TestBlockGolden(t *testing.T) {
	for name, samples := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".block")
			payload := EncodeBlock(samples)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, payload, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(payload, golden) {
				t.Fatalf("encoding of %q diverged from golden file (%d vs %d bytes): the block format changed", name, len(payload), len(golden))
			}
			got, err := DecodeBlock(golden)
			if err != nil {
				t.Fatal(err)
			}
			assertSamplesEqual(t, got, samples)
		})
	}
}

// TestBlockCompression asserts the ≥8x ratio the ISSUE requires on
// SCADA-shaped data (regular cadence, small value drift).
func TestBlockCompression(t *testing.T) {
	// 200 is the golden "regular" block, 512 the BenchmarkBlockCodec one.
	for _, n := range []int{200, 512} {
		samples := deadbandSamples(n)
		payload := EncodeBlock(samples)
		raw := len(samples) * rawSampleBytes
		if ratio := float64(raw) / float64(len(payload)); ratio < 8 {
			t.Fatalf("%d samples: compression ratio %.2fx < 8x (%d raw -> %d compressed)", n, ratio, raw, len(payload))
		}
	}
}

// BenchmarkBlockCodec is the block codec's throughput in raw sample
// bytes (16 B/sample) on deadband telemetry, with the compression
// ratio it achieves there as the "x" metric.
func BenchmarkBlockCodec(b *testing.B) {
	samples := deadbandSamples(512)
	raw := int64(len(samples) * rawSampleBytes)
	encoded := EncodeBlock(samples)
	ratio := float64(raw) / float64(len(encoded))
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encoded = EncodeBlock(samples)
		}
		b.ReportMetric(ratio, "x")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBlock(encoded); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(ratio, "x")
	})
}

// TestDecodeCorrupt feeds truncations and bit flips of a valid block;
// every one must return ErrCorrupt or decode cleanly — never panic.
func TestDecodeCorrupt(t *testing.T) {
	payload := EncodeBlock(goldenCases()["jitter"])
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeBlock(payload[:cut]); err == nil {
			// Some truncations still hold a complete sample run; that
			// is fine as long as nothing panics.
			continue
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), payload...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		DecodeBlock(mut) // must not panic
	}
	if _, err := DecodeBlock(nil); err == nil {
		t.Fatal("nil payload decoded")
	}
	if s, err := DecodeBlock(EncodeBlock(nil)); err != nil || len(s) != 0 {
		t.Fatalf("empty block: %v %v", s, err)
	}
}

// FuzzDecodeBlock is the native fuzz target: DecodeBlock must be
// total over arbitrary bytes. Seeds come from the golden corpus.
func FuzzDecodeBlock(f *testing.F) {
	for _, samples := range goldenCases() {
		f.Add(EncodeBlock(samples))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		samples, err := DecodeBlock(payload)
		if err != nil {
			return
		}
		// A successful decode must round-trip through the encoder.
		got, err := DecodeBlock(EncodeBlock(samples))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(got) != len(samples) {
			t.Fatalf("re-decode length %d != %d", len(got), len(samples))
		}
		for i := range got {
			if !got[i].T.Equal(samples[i].T) || math.Float64bits(got[i].V) != math.Float64bits(samples[i].V) {
				t.Fatalf("re-decode sample %d mismatch", i)
			}
		}
	})
}
