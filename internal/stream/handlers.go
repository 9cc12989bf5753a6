package stream

import (
	"net/http"

	"uncharted/internal/obs"
)

// This file holds the HTTP handler constructors for what the engine
// publishes. The pipeline's analyzer segment mounts them (so every
// graph-running command and control-room tenant serves them) and the
// control-room service renders its fleet view with NewProfileHandler:
// one implementation decides status codes, Content-Type headers and
// the ?format negotiation.

// NewProfileHandler serves the profile returned by get as JSON
// (default) or a plain-text operator summary with ?format=text. A nil
// profile — nothing published yet — is 503, the signal load balancers
// and the readiness probes expect from a warming engine; a profile
// encoding/json would refuse (a NaN or infinite measurement) is 500
// with the encoding error, never an empty 200 a cache could keep.
func NewProfileHandler(get func() *Profile) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		format, ok := obs.PickFormat(w, req, "json", "text")
		if !ok {
			return
		}
		prof := get()
		if prof == nil {
			http.Error(w, "no profile published yet", http.StatusServiceUnavailable)
			return
		}
		if format == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			prof.WriteText(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := prof.WriteJSON(w); err != nil {
			http.Error(w, "profile: "+err.Error(), http.StatusInternalServerError)
		}
	})
}

// Endpoints is the engine's own query surface as a fresh path → handler
// map: /profile, /statusz and /readyz. It never carries /drift or
// /query — drift watches and historians belong to whatever wraps the
// engine, which adds their routes to this map.
func Endpoints(e *Engine) map[string]http.Handler {
	return map[string]http.Handler{
		"/profile": NewProfileHandler(e.Profile),
		"/statusz": NewStatusHandler(e.Status),
		"/readyz":  obs.ReadyHandler(e.Ready),
	}
}

// NewStatusHandler serves the live pipeline topology returned by get:
// auto-refreshing HTML by default, ?format=json for machines
// (cmd/unchartedtop polls this), ?format=text for terminals.
func NewStatusHandler(get func() Status) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		format, ok := obs.PickFormat(w, req, "html", "json", "text")
		if !ok {
			return
		}
		st := get()
		switch format {
		case "json":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			st.WriteJSON(w)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			st.WriteText(w)
		default:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeStatusHTML(w, st)
		}
	})
}
