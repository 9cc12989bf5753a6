package historian

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/physical"
)

// sampleRow is one /query JSON row, as the generic renderer is given it.
type sampleRow struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// TestSampleRowsMatchEncoder: /query's direct row writer writes byte
// for byte what the generic renderer writes for the same rows — on the
// float shapes encoding/json treats specially (zero and negative zero,
// the exponent thresholds at 1e-6 and 1e21, one- and three-digit
// exponents, the extremes), on times with and without a fraction, on
// 20 000 random bit patterns and times, and on no rows at all — and a
// document with a NaN or infinite value, or a time outside UTC, comes
// out exactly as the generic renderer has it.
func TestSampleRowsMatchEncoder(t *testing.T) {
	check := func(name string, samples Samples) {
		t.Helper()
		rows := make([]sampleRow, len(samples))
		for i, s := range samples {
			rows[i] = sampleRow{T: s.T, V: s.V}
		}
		var want, got bytes.Buffer
		obs.WriteIndentedJSON(&want, rows)
		writeSampleRows(&got, samples)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: wrote\n%s\nwant\n%s", name, got.Bytes(), want.Bytes())
		}
	}
	at := func(ns int64) time.Time { return time.Unix(0, ns).UTC() }

	check("no rows", Samples{})
	var shapes Samples
	for i, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789.123, 1e20, 1e21, -1e21, 123e25,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 1e-100, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1.0 / 3, 2.0 / 3, 1e15 + 0.3,
	} {
		shapes = append(shapes, physical.Sample{T: at(testBase.UnixNano() + int64(i)*1_234_567), V: v})
	}
	shapes = append(shapes,
		physical.Sample{T: testBase, V: 7},                              // whole second
		physical.Sample{T: testBase.Add(500 * time.Millisecond), V: 7},  // trailing zeros trimmed
		physical.Sample{T: at(0), V: 7},                                 // the epoch
		physical.Sample{T: at(math.MinInt64), V: 7},                     // 1677
		physical.Sample{T: at(math.MaxInt64), V: 7},                     // 2262
		physical.Sample{T: testBase.Add(time.Nanosecond), V: -0.000123}, // nine fraction digits
	)
	check("shapes", shapes)

	rng := rand.New(rand.NewSource(37))
	random := make(Samples, 0, 20_000)
	for len(random) < cap(random) {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		random = append(random, physical.Sample{T: at(rng.Int63() - rng.Int63()), V: v})
	}
	check("random", random)

	for _, odd := range []physical.Sample{
		{T: testBase, V: math.NaN()},
		{T: testBase, V: math.Inf(-1)},
		{T: testBase.In(time.FixedZone("UTC+2", 2*3600)), V: 1},
		{T: time.Date(10000, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 0)), V: 1},
	} {
		check("fallback "+odd.T.String(), Samples{{T: testBase, V: 1}, odd})
	}
}
