package pipeline

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"uncharted/internal/obs"
	"uncharted/internal/stream"
)

func init() {
	Register(Spec{
		Kind: "export",
		Role: RoleOutput,
		In:   PortProfiles,
		Doc:  "write profiles to a file: json (the final profile; none, and no file, from a failed run), jsonl (one profile per snapshot) or csv (one summary row per snapshot)",
		Params: []ParamSpec{
			{Name: "path", Type: ParamString, Required: true, Doc: "output file"},
			{Name: "format", Type: ParamString, Default: "json", Doc: "json, jsonl or csv"},
		},
		Build: buildExport,
	})
	Register(Spec{
		Kind: "webhook",
		Role: RoleOutput,
		In:   PortProfiles,
		Doc:  "POST one JSON document per alert of an analyzer's IDS to an HTTP endpoint (delivery failures are logged, not fatal)",
		Params: []ParamSpec{
			{Name: "url", Type: ParamString, Required: true, Doc: "webhook endpoint"},
			{Name: "timeout", Type: ParamDuration, Default: 5 * time.Second, Doc: "per-delivery timeout"},
		},
		Build: buildWebhook,
	})
}

// ExportOutput writes profiles to a file in one of three formats.
type ExportOutput struct {
	path   string
	format string
}

func buildExport(bc BuildCtx) (Segment, error) {
	format := bc.Params.Str("format")
	switch format {
	case "json", "jsonl", "csv":
	default:
		return nil, fmt.Errorf("unknown format %q (want json, jsonl or csv)", format)
	}
	// Create eagerly so an unwritable path fails the build, not the run.
	f, err := os.Create(bc.Params.Str("path"))
	if err != nil {
		return nil, err
	}
	f.Close()
	return &ExportOutput{path: bc.Params.Str("path"), format: format}, nil
}

// Run implements Segment.
func (s *ExportOutput) Run(_ context.Context, in <-chan Msg, _ Emit) error {
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	var final *stream.Profile
	var cw *csv.Writer
	if s.format == "csv" {
		cw = csv.NewWriter(f)
		if err := cw.Write([]string{"seq", "last", "packets", "iec_packets", "flows", "asdus", "parse_errors", "seq_anomalies"}); err != nil {
			f.Close()
			return err
		}
	}
	for m := range in {
		sn := m.Snap
		if sn == nil || sn.Profile == nil {
			continue
		}
		switch s.format {
		case "jsonl":
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(sn.Profile); err != nil {
				f.Close()
				return err
			}
			if _, err := f.Write(buf.Bytes()); err != nil {
				f.Close()
				return err
			}
		case "csv":
			p := sn.Partial
			if err := cw.Write([]string{
				strconv.Itoa(sn.Seq),
				p.Last.UTC().Format(time.RFC3339Nano),
				strconv.Itoa(p.Packets),
				strconv.Itoa(p.IECPackets),
				strconv.Itoa(p.Flows.Total()),
				strconv.Itoa(p.TotalASDUs),
				strconv.Itoa(p.ParseErrors),
				strconv.Itoa(p.SeqAnomalies),
			}); err != nil {
				f.Close()
				return err
			}
		default:
			if sn.Final {
				final = sn.Profile
			}
		}
	}
	if s.format == "csv" {
		cw.Flush()
		if err := cw.Error(); err != nil {
			f.Close()
			return err
		}
	}
	if s.format == "json" {
		// Only a run that read its input to the end or was drained
		// publishes a final snapshot; a failed one leaves no file.
		if final == nil {
			f.Close()
			return os.Remove(s.path)
		}
		if err := final.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// WebhookOutput delivers alerts as JSON POSTs.
type WebhookOutput struct {
	env      *Env
	id       string
	url      string
	client   *http.Client
	failures *obs.Counter
}

func buildWebhook(bc BuildCtx) (Segment, error) {
	return &WebhookOutput{
		env:      bc.Env,
		id:       bc.ID,
		url:      bc.Params.Str("url"),
		client:   &http.Client{Timeout: bc.Params.Dur("timeout")},
		failures: bc.Env.Registry.With("segment", bc.ID).Counter("uncharted_pipeline_webhook_failures_total"),
	}, nil
}

// Run implements Segment. A failed delivery is counted and logged but
// never fails the pipeline: an alert sink being down must not stop
// analysis.
func (s *WebhookOutput) Run(_ context.Context, in <-chan Msg, _ Emit) error {
	for m := range in {
		if m.Alert == nil {
			continue
		}
		body, err := json.Marshal(map[string]any{
			"pipeline": s.env.Pipeline,
			"segment":  s.id,
			"kind":     string(m.Alert.Kind),
			"severity": m.Alert.Severity,
			"subject":  m.Alert.Subject,
			"detail":   m.Alert.Detail,
		})
		if err != nil {
			s.failures.Inc()
			continue
		}
		resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
		if err != nil {
			s.failures.Inc()
			s.env.Logf("webhook %s: delivery failed: %v", s.id, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			s.failures.Inc()
			s.env.Logf("webhook %s: endpoint answered %s", s.id, resp.Status)
		}
	}
	return nil
}
