package drift

import (
	"fmt"
	"io"

	"uncharted/internal/ids"
	"uncharted/internal/obs"
)

// WriteJSON renders the report as indented JSON.
func (r *DriftReport) WriteJSON(w io.Writer) error {
	return obs.WriteIndentedJSON(w, r)
}

// WriteText renders the report the way the CLIs print it: the two
// profile summaries, the global metrics, then findings grouped by
// severity (worst first). A clean comparison says so explicitly.
func (r *DriftReport) WriteText(w io.Writer) {
	side := func(tag string, s Summary) {
		fmt.Fprintf(w, "  %s %-12s packets=%d iec=%d window=%s endpoints=%d conns=%d points=%d\n",
			tag, s.Label, s.Packets, s.IECPackets, s.Window, s.Endpoints, s.Connections, s.Points)
	}
	fmt.Fprintln(w, "== Drift report ==")
	side("A:", r.A)
	side("B:", r.B)
	fmt.Fprintf(w, "  metrics: max-transition-jsd=%.3f type-mix-jsd=%.3f flow-ks=%.3f interarrival-ks=%.3f\n",
		r.MaxTransitionJSD, r.TypeMixJSD, r.FlowDurationKS, r.InterArrivalKS)
	if len(r.Findings) == 0 {
		fmt.Fprintln(w, "  no drift above thresholds")
		return
	}
	counts := r.CountBySeverity()
	fmt.Fprintf(w, "  findings: %d (critical=%d warning=%d info=%d)\n",
		len(r.Findings), counts[SevCritical], counts[SevWarn], counts[SevInfo])
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  %s\n", f)
	}
}

// Alert converts one finding into an ids drift alert.
func (f Finding) Alert() ids.Alert {
	return ids.Alert{
		Kind:     ids.AlertDrift,
		Severity: f.Severity,
		Subject:  f.Subject,
		Detail:   f.Kind + ": " + f.Detail,
	}
}
