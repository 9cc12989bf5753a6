package pipeline

import (
	"fmt"
	"html"
	"io"
	"net/http"
	"strings"

	"uncharted/internal/obs"
)

// SegmentStatus is one node of the live graph document.
type SegmentStatus struct {
	ID       string   `json:"id"`
	Kind     string   `json:"segment"`
	Role     string   `json:"role"`
	In       string   `json:"in,omitempty"`
	Out      string   `json:"out,omitempty"`
	From     []string `json:"from,omitempty"`
	State    string   `json:"state"`
	QueueLen int      `json:"queue_len"`
	QueueCap int      `json:"queue_cap"`
	MsgsIn   int64    `json:"msgs_in"`
	MsgsOut  int64    `json:"msgs_out"`
	PktsIn   int64    `json:"packets_in"`
	PktsOut  int64    `json:"packets_out"`
	Stalls   int64    `json:"stalls"`
	Error    string   `json:"error,omitempty"`
}

// PipelineStatus is one pipeline's live graph.
type PipelineStatus struct {
	Name      string          `json:"name"`
	Endpoints []string        `json:"endpoints,omitempty"`
	Segments  []SegmentStatus `json:"segments"`
}

func nodeStateName(s int32) string {
	switch s {
	case nodeRunning:
		return "running"
	case nodeDone:
		return "done"
	case nodeFailed:
		return "failed"
	}
	return "idle"
}

// status assembles the live graph of every hosted pipeline.
func (r *Runner) status() []PipelineStatus {
	out := make([]PipelineStatus, 0, len(r.pipes))
	for _, p := range r.pipes {
		out = append(out, r.pipeStatus(p))
	}
	return out
}

func (r *Runner) pipeStatus(p *pipe) PipelineStatus {
	st := PipelineStatus{Name: p.name, Endpoints: p.env.handlerPaths()}
	for _, n := range p.nodes {
		ss := SegmentStatus{
			ID:      n.id,
			Kind:    n.kind,
			Role:    string(n.spec.Role),
			In:      string(n.spec.In),
			Out:     string(n.spec.Out),
			From:    n.from,
			State:   nodeStateName(n.state.Load()),
			MsgsIn:  n.msgsIn.Value(),
			MsgsOut: n.msgsOut.Value(),
			PktsIn:  n.pktsIn.Value(),
			PktsOut: n.pktsOut.Value(),
			Stalls:  n.stalls.Value(),
		}
		if n.in != nil {
			ss.QueueLen, ss.QueueCap = len(n.in), cap(n.in)
		}
		if n.source != nil {
			// A handed-off edge: report what the consumer's engine read.
			if pk := n.source.SourcePackets(); n.in == nil {
				ss.PktsOut = pk
			} else {
				ss.PktsIn = pk
			}
		}
		if err := n.Err(); err != nil {
			ss.Error = err.Error()
		}
		st.Segments = append(st.Segments, ss)
	}
	return st
}

// newStatusHandler serves a pipeline-status document: auto-refreshing
// HTML by default, ?format=json for machines, ?format=text for
// terminals.
func newStatusHandler(get func() []PipelineStatus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		format, ok := obs.PickFormat(w, req, "html", "json", "text")
		if !ok {
			return
		}
		sts := get()
		switch format {
		case "json":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			obs.WriteIndentedJSON(w, sts)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, st := range sts {
				writeStatusText(w, st)
			}
		default:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeStatusesHTML(w, sts)
		}
	})
}

func writeStatusText(w io.Writer, st PipelineStatus) {
	fmt.Fprintf(w, "pipeline %s\n", st.Name)
	for _, s := range st.Segments {
		from := ""
		if len(s.From) > 0 {
			from = " <- " + strings.Join(s.From, ",")
		}
		fmt.Fprintf(w, "  %-14s %-12s %-8s %-8s queue %d/%d  msgs %d/%d  pkts %d/%d  stalls %d%s\n",
			s.ID, s.Kind, s.Role, s.State, s.QueueLen, s.QueueCap,
			s.MsgsIn, s.MsgsOut, s.PktsIn, s.PktsOut, s.Stalls, from)
		if s.Error != "" {
			fmt.Fprintf(w, "    error: %s\n", s.Error)
		}
	}
}

func writeStatusesHTML(w io.Writer, sts []PipelineStatus) {
	fmt.Fprint(w, `<!DOCTYPE html>
<html><head><meta http-equiv="refresh" content="2"><title>uncharted pipelines</title>
<style>
body{font-family:monospace;margin:1.5em}
table{border-collapse:collapse;margin:0 0 1.5em}
td,th{border:1px solid #999;padding:2px 8px;text-align:right}
th{background:#eee}
td:first-child,th:first-child,td.l,th.l{text-align:left}
.failed{color:#b00;font-weight:bold}
.done{color:#060}
</style></head><body>
<h2>uncharted pipeline runtime</h2>
`)
	for _, st := range sts {
		fmt.Fprintf(w, "<h3>pipeline %s</h3>\n", html.EscapeString(st.Name))
		if len(st.Endpoints) > 0 {
			fmt.Fprint(w, "<p>")
			for i, ep := range st.Endpoints {
				if i > 0 {
					fmt.Fprint(w, " · ")
				}
				e := html.EscapeString(ep)
				fmt.Fprintf(w, `<a href="/pipelines/%s%s">%s</a>`, html.EscapeString(st.Name), e, e)
			}
			fmt.Fprint(w, "</p>\n")
		}
		fmt.Fprint(w, "<table><tr><th>segment</th><th>kind</th><th>role</th><th>state</th><th>from</th><th>queue</th><th>msgs in/out</th><th>pkts in/out</th><th>stalls</th></tr>\n")
		for _, s := range st.Segments {
			cls := ""
			if s.State == "failed" || s.State == "done" {
				cls = " " + s.State
			}
			fmt.Fprintf(w, `<tr><td>%s</td><td class="l">%s</td><td class="l">%s</td><td class="l%s">%s</td><td class="l">%s</td><td>%d/%d</td><td>%d/%d</td><td>%d/%d</td><td>%d</td></tr>`+"\n",
				html.EscapeString(s.ID), html.EscapeString(s.Kind), html.EscapeString(s.Role),
				cls, html.EscapeString(s.State), html.EscapeString(strings.Join(s.From, ", ")),
				s.QueueLen, s.QueueCap, s.MsgsIn, s.MsgsOut, s.PktsIn, s.PktsOut, s.Stalls)
			if s.Error != "" {
				fmt.Fprintf(w, `<tr><td></td><td colspan="8" class="l failed">%s</td></tr>`+"\n", html.EscapeString(s.Error))
			}
		}
		fmt.Fprint(w, "</table>\n")
	}
	fmt.Fprint(w, "</body></html>\n")
}
