package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
	if got := quantile([]float64{0, 10, 20, 30, 40}, 0.9); got != 36 {
		t.Errorf("p90 = %v, want 36 (interpolated)", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that passes for a measurement")
	}
}

// The protocol's core estimator: each pass is divided by the mean of
// the reference runs on either side of it, and the median ratio is
// scaled by the frozen nominal. A machine that slows down mid-run must
// not move the estimate.
func TestPairedNormalisationCancelsDrift(t *testing.T) {
	const nominal = 0.040
	var passes, refs []float64
	speed := func(i int) float64 { return 1 + 0.3*float64(i)/20 } // 30 % slower by the end
	for i := 0; i <= 20; i++ {
		refs = append(refs, nominal*speed(i))
	}
	for i := 0; i < 20; i++ {
		passes = append(passes, 0.250*(speed(i)+speed(i+1))/2)
	}
	passes[7] *= 3 // one pass hit by a stall: the median shrugs
	got := normalised(passes, refs, nominal)
	if math.Abs(got-0.250) > 1e-9 {
		t.Errorf("normalised pass time = %v, want 0.250 whatever the drift", got)
	}
	if raw := median(passes); math.Abs(raw-0.250) < 0.02 {
		t.Errorf("raw median %v should show the drift the normalisation removed", raw)
	}
	if f := driftFactor(refs, nominal); math.Abs(f-1/speed(10)) > 1e-9 {
		t.Errorf("drift factor = %v, want %v", f, 1/speed(10))
	}
}

func TestPairedRatiosNeedsBracketingReferences(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pairedRatios accepted passes without a reference on both sides")
		}
	}()
	pairedRatios([]float64{1, 2}, []float64{1, 2})
}

// A tail percentile is only reported when at least ten samples lie
// beyond it.
func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{10, 0, false},
		{15, 0.5, true}, // 1-10/15 would be below the median
		{40, 0.75, true},
		{99, 1 - 10.0/99, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{1 << 20, 0.999, true},
	} {
		got, ok := tailQuantile(tc.n)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if tl := tailOf(xs); tl.Percentile != 0.9 || tl.Samples != 200 || math.Abs(tl.Value-179.1) > 1e-9 {
		t.Errorf("tailOf(0..199) = %+v, want p90 = 179.1 over 200 samples", tl)
	}
}

func TestSelfTimes(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "pass", Start: msd(0), End: msd(100), Parent: -1},
		// Nested: read is inside pass, plan inside read.
		{Name: "read", Start: msd(10), End: msd(40), Parent: 0},
		{Name: "plan", Start: msd(12), End: msd(17), Parent: 1},
		// Two shards overlapping each other for 20 ms, one sticking out
		// of the parent by 10 ms.
		{Name: "shard", Start: msd(50), End: msd(80), Parent: 0},
		{Name: "shard", Start: msd(60), End: msd(110), Parent: 0},
		// Never closed: ignored.
		{Name: "open", Start: msd(90), End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"pass":  msd(100 - 30 - 50), // children cover [10,40] and [50,100]
		"read":  msd(30 - 5),
		"plan":  msd(5),
		"shard": msd(30 + 50),
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span was given a self time")
	}
}

func TestSpanRecorderNilIsInert(t *testing.T) {
	var r *spanRecorder
	id := r.begin("x", -1, 0)
	if id != -1 || r.end(id) != 0 || r.add("y", time.Now(), time.Second, -1, 0) != -1 {
		t.Error("a nil recorder must record nothing")
	}
}
