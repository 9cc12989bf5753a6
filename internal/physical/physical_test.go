package physical

import (
	"testing"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/protocol"
)

var t0 = time.Date(2026, 7, 5, 8, 0, 0, 0, time.UTC)

// feedASDU stores an IEC 104 frame's measurements the way the analyzer
// does: extracted once by iec104.AppendPoints, fed through FeedPoints.
func feedASDU(st *Store, station string, a *iec104.ASDU, at time.Time, command bool) {
	st.FeedPoints(station, protocol.IEC104, iec104.AppendPoints(nil, a, command), at)
}

func mkSeries(station string, ioa uint32, vals []float64, step time.Duration) *Series {
	s := &Series{Key: SeriesKey{Station: station, IOA: ioa}}
	for i, v := range vals {
		s.Samples = append(s.Samples, Sample{T: t0.Add(time.Duration(i) * step), V: v})
	}
	return s
}

func TestStoreFeedAndExtract(t *testing.T) {
	st := NewStore()
	a := iec104.NewMeasurement(iec104.MMeNc, 1, 1001, iec104.Value{Kind: iec104.KindFloat, Float: 59.98}, iec104.CauseSpontaneous)
	feedASDU(st, "O3", a, t0, false)
	a2 := iec104.NewMeasurement(iec104.MMeNc, 1, 1001, iec104.Value{Kind: iec104.KindFloat, Float: 60.02}, iec104.CauseSpontaneous)
	feedASDU(st, "O3", a2, t0.Add(time.Second), false)

	s, ok := st.Get(SeriesKey{Station: "O3", IOA: 1001})
	if !ok || len(s.Samples) != 2 {
		t.Fatalf("series %+v", s)
	}
	if s.Samples[1].V != 60.02 {
		t.Fatalf("value %v", s.Samples[1].V)
	}
	if len(st.ByStation("O3")) != 1 || len(st.ByStation("O4")) != 0 {
		t.Fatal("ByStation broken")
	}
}

func TestStoreUsesTimeTag(t *testing.T) {
	st := NewStore()
	tagged := t0.Add(-30 * time.Second)
	a := iec104.NewMeasurement(iec104.MMeTf, 1, 9, iec104.Value{
		Kind: iec104.KindFloat, Float: 1, HasTime: true,
		Time: iec104.CP56Time2a{Time: tagged},
	}, iec104.CausePeriodic)
	feedASDU(st, "O1", a, t0, false)
	s, _ := st.Get(SeriesKey{Station: "O1", IOA: 9})
	if !s.Samples[0].T.Equal(tagged) {
		t.Fatalf("timestamp %v, want tag %v", s.Samples[0].T, tagged)
	}
	// An invalid tag falls back to capture time.
	b := iec104.NewMeasurement(iec104.MMeTf, 1, 10, iec104.Value{
		Kind: iec104.KindFloat, Float: 1, HasTime: true,
		Time: iec104.CP56Time2a{Time: tagged, Invalid: true},
	}, iec104.CausePeriodic)
	feedASDU(st, "O1", b, t0, false)
	s2, _ := st.Get(SeriesKey{Station: "O1", IOA: 10})
	if !s2.Samples[0].T.Equal(t0) {
		t.Fatalf("invalid tag not ignored: %v", s2.Samples[0].T)
	}
}

func TestStoreSkipsRawKinds(t *testing.T) {
	st := NewStore()
	a := &iec104.ASDU{Type: iec104.FSgNa, COT: iec104.COT{Cause: iec104.CauseFile}, CommonAddr: 1,
		Objects: []iec104.InfoObject{{IOA: 1, Value: iec104.Value{Kind: iec104.KindRaw}, Raw: []byte{1, 2}}}}
	feedASDU(st, "O1", a, t0, false)
	if len(st.All()) != 0 {
		t.Fatal("raw element produced a series")
	}
}

func TestRankedByNormalizedVariance(t *testing.T) {
	st := NewStore()
	flat := mkSeries("O1", 1, []float64{100, 100.1, 99.9, 100, 100.05}, time.Second)
	wild := mkSeries("O1", 2, []float64{100, 160, 40, 150, 60}, time.Second)
	st.order = append(st.order, flat, wild)

	ranked := st.Ranked(3)
	if len(ranked) != 2 {
		t.Fatalf("%d ranked", len(ranked))
	}
	if ranked[0].Key.IOA != 2 {
		t.Fatalf("wild series not ranked first: %v", ranked[0].Key)
	}
	if got := st.Ranked(10); len(got) != 0 {
		t.Fatal("minSamples filter broken")
	}
}

func TestTypeStations(t *testing.T) {
	st := NewStore()
	mk := func(station string, ioa uint32, typ iec104.TypeID) {
		a := iec104.NewMeasurement(typ, 1, ioa, iec104.Value{Kind: iec104.KindFloat, Float: 1}, iec104.CausePeriodic)
		feedASDU(st, station, a, t0, false)
	}
	mk("O1", 1, iec104.MMeNc)
	mk("O1", 2, iec104.MMeNc)
	mk("O2", 1, iec104.MMeNc)
	mk("O3", 1, iec104.MMeTf)
	counts := st.TypeStations()
	if counts[IEC104Type(iec104.MMeNc)] != 2 {
		t.Fatalf("I13 stations = %d, want 2", counts[IEC104Type(iec104.MMeNc)])
	}
	if counts[IEC104Type(iec104.MMeTf)] != 1 {
		t.Fatalf("I36 stations = %d", counts[IEC104Type(iec104.MMeTf)])
	}
}

// syncSeries builds the Fig. 20 shape: voltage 0→130, breaker 0→2,
// power 0→60.
func syncSeries(powerBeforeBreaker bool) (v, b, p *Series) {
	var volts, brk, pow []float64
	for i := 0; i < 60; i++ {
		switch {
		case i < 10: // dead bus
			volts = append(volts, 0.3)
			brk = append(brk, 0)
			pow = append(pow, 0)
		case i < 30: // ramp
			volts = append(volts, float64(i-10)*6.5)
			brk = append(brk, 0)
			if powerBeforeBreaker && i > 20 {
				pow = append(pow, 25)
			} else {
				pow = append(pow, 0)
			}
		case i < 35: // nominal, breaker closes at i=32
			volts = append(volts, 130)
			if i >= 32 {
				brk = append(brk, 2)
			} else {
				brk = append(brk, 0)
			}
			pow = append(pow, 0)
		default: // delivering
			volts = append(volts, 129.5)
			brk = append(brk, 2)
			pow = append(pow, float64(i-34)*3)
		}
	}
	return mkSeries("O29", 1, volts, 2*time.Second),
		mkSeries("O29", 2, brk, 2*time.Second),
		mkSeries("O29", 3, pow, 2*time.Second)
}

func TestDetectSyncCompliant(t *testing.T) {
	v, b, p := syncSeries(false)
	events := DetectSync("O29", v, b, p, DefaultSyncConfig())
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	ev := events[0]
	if !ev.Compliant {
		t.Fatal("compliant activation flagged non-compliant")
	}
	if !ev.RampStart.Before(ev.BreakerClose) || !ev.BreakerClose.Before(ev.PowerStart) {
		t.Fatalf("event ordering broken: %+v", ev)
	}
	if ev.NominalVoltage < 120 {
		t.Fatalf("nominal voltage %v", ev.NominalVoltage)
	}
}

func TestDetectSyncNonCompliant(t *testing.T) {
	v, b, p := syncSeries(true)
	events := DetectSync("O29", v, b, p, DefaultSyncConfig())
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	if events[0].Compliant {
		t.Fatal("power-before-breaker activation reported compliant")
	}
}

func TestDetectSyncNoEventOnSteadyBus(t *testing.T) {
	v := mkSeries("O1", 1, []float64{130, 130, 129.8, 130.1}, time.Second)
	b := mkSeries("O1", 2, []float64{2, 2, 2, 2}, time.Second)
	p := mkSeries("O1", 3, []float64{50, 51, 49, 50}, time.Second)
	if ev := DetectSync("O1", v, b, p, DefaultSyncConfig()); len(ev) != 0 {
		t.Fatalf("steady bus produced %d events", len(ev))
	}
	if ev := DetectSync("O1", nil, b, p, DefaultSyncConfig()); ev != nil {
		t.Fatal("nil series produced events")
	}
}

func TestDetectUnmetLoad(t *testing.T) {
	// Frequency bump 60 → 60.08 → 60.
	var freq []float64
	for i := 0; i < 100; i++ {
		f := 60.0
		if i >= 30 && i < 60 {
			f = 60.08
		}
		freq = append(freq, f)
	}
	fs := mkSeries("grid", 1, freq, time.Second)
	// Setpoints step down during the excursion, up after.
	sp := &Series{Key: SeriesKey{Station: "O29", IOA: 7001}, Command: true}
	sp.Samples = []Sample{
		{T: t0.Add(10 * time.Second), V: 100},
		{T: t0.Add(40 * time.Second), V: 80},
		{T: t0.Add(80 * time.Second), V: 100},
	}
	events := DetectUnmetLoad(fs, Views(sp), 60, 0.04)
	if len(events) != 1 {
		t.Fatalf("%d events", len(events))
	}
	ev := events[0]
	if ev.PeakFrequency < 60.07 {
		t.Fatalf("peak %v", ev.PeakFrequency)
	}
	if !ev.AGCReduced || !ev.AGCRestored {
		t.Fatalf("AGC flags %+v", ev)
	}
}

func TestDetectUnmetLoadQuietGrid(t *testing.T) {
	fs := mkSeries("grid", 1, []float64{60, 60.004, 59.998, 60.001}, time.Second)
	if ev := DetectUnmetLoad(fs, nil, 60, 0.04); len(ev) != 0 {
		t.Fatalf("quiet grid produced %d events", len(ev))
	}
}

func TestCorrelateAGC(t *testing.T) {
	// Output follows the setpoint with a 3-sample delay.
	sp := mkSeries("O29", 7001, []float64{100, 100, 80, 80, 80, 80, 100, 100, 100, 100, 100, 100}, time.Second)
	out := mkSeries("O29", 1001, []float64{100, 100, 100, 100, 100, 82, 80, 80, 80, 95, 100, 100}, time.Second)
	resp, err := CorrelateAGC("O29", sp, out, 6)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Correlation < 0.6 {
		t.Fatalf("correlation %v", resp.Correlation)
	}
	if resp.BestLag == 0 {
		t.Fatalf("lag %d, want > 0", resp.BestLag)
	}
}

func TestStoreCapBoundsMemory(t *testing.T) {
	const n = 1_000_000
	const cap = 1000
	capped := NewStore()
	capped.SetMaxSamplesPerSeries(cap)
	exact := NewStore()

	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := 60 + 0.05*float64(i%37) - 0.9
		vals = append(vals, v)
		a := iec104.NewMeasurement(iec104.MMeNc, 1, 1001,
			iec104.Value{Kind: iec104.KindFloat, Float: v}, iec104.CausePeriodic)
		at := t0.Add(time.Duration(i) * time.Millisecond)
		feedASDU(capped, "O1", a, at, false)
		if i%101 == 0 { // sparse exact reference to keep the test fast
			feedASDU(exact, "O1", a, at, false)
		}
	}

	s, ok := capped.Get(SeriesKey{Station: "O1", IOA: 1001})
	if !ok {
		t.Fatal("series missing")
	}
	if len(s.Samples) > cap {
		t.Fatalf("retained %d samples, cap %d", len(s.Samples), cap)
	}
	if got := s.Evicted() + len(s.Samples); got != n {
		t.Fatalf("digest coverage %d, want %d", got, n)
	}
	d := s.Digest()
	if d.Count != n {
		t.Fatalf("digest count %d, want %d", d.Count, n)
	}
	// The digest stays exact over the full history despite eviction.
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if diff := d.Mean - mean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("digest mean %v, exact mean %v", d.Mean, mean)
	}
	if d.First != t0 || d.Last != t0.Add((n-1)*time.Millisecond) {
		t.Fatalf("digest window %v..%v", d.First, d.Last)
	}
	// Ranking still counts evicted samples toward minSamples.
	if ranked := capped.Ranked(n); len(ranked) != 1 {
		t.Fatalf("capped series fell out of the ranking: %d", len(ranked))
	}
}

func TestSeriesAt(t *testing.T) {
	s := mkSeries("O1", 1, []float64{1, 2, 3}, time.Second)
	if _, ok := s.At(t0.Add(-time.Second)); ok {
		t.Fatal("value before first sample")
	}
	if v, ok := s.At(t0.Add(1500 * time.Millisecond)); !ok || v != 2 {
		t.Fatalf("At = %v,%v", v, ok)
	}
	if v, _ := s.At(t0.Add(time.Hour)); v != 3 {
		t.Fatalf("At far future = %v", v)
	}
}
