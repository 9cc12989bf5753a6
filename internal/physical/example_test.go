package physical_test

import (
	"fmt"
	"time"

	"uncharted/internal/iec104"
	"uncharted/internal/physical"
	"uncharted/internal/protocol"
)

// Extract a time series from parsed I-frames and score it: the §6.4
// normalized-variance scan that surfaced the paper's unmet-load event.
func ExampleStore() {
	store := physical.NewStore()
	base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	for i, mw := range []float64{80, 81, 79, 120, 40, 80} {
		asdu := iec104.NewMeasurement(iec104.MMeNc, 29, 1001,
			iec104.Value{Kind: iec104.KindFloat, Float: mw}, iec104.CauseSpontaneous)
		store.FeedPoints("O29", protocol.IEC104, iec104.AppendPoints(nil, asdu, false), base.Add(time.Duration(i)*time.Second))
	}
	s, _ := store.Get(physical.SeriesKey{Station: "O29", IOA: 1001})
	fmt.Printf("samples=%d nvar>0.05: %t\n", len(s.Samples), s.NormalizedVariance() > 0.05)
	// Output: samples=6 nvar>0.05: true
}

// Run the Fig. 21 signature machine over a generator activation:
// voltage ramp, breaker close, then power flow.
func ExampleDetectSync() {
	base := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	mk := func(ioa uint32, vals []float64) *physical.Series {
		s := &physical.Series{Key: physical.SeriesKey{Station: "O29", IOA: ioa}}
		for i, v := range vals {
			s.Samples = append(s.Samples, physical.Sample{T: base.Add(time.Duration(i) * 10 * time.Second), V: v})
		}
		return s
	}
	voltage := mk(1, []float64{0, 0, 30, 65, 100, 128, 130, 130, 130, 130})
	breaker := mk(2, []float64{0, 0, 0, 0, 0, 0, 2, 2, 2, 2})
	power := mk(3, []float64{0, 0, 0, 0, 0, 0, 0, 12, 25, 40})

	events := physical.DetectSync("O29", voltage, breaker, power, physical.DefaultSyncConfig())
	for _, ev := range events {
		fmt.Printf("activation compliant=%t nominal=%.0fkV\n", ev.Compliant, ev.NominalVoltage)
	}
	// Output: activation compliant=true nominal=130kV
}
