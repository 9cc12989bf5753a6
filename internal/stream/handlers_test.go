package stream

import (
	"net/http/httptest"
	"strings"
	"testing"

	"uncharted/internal/core"
)

// TestHandlerConstructors exercises the shared endpoint constructors
// directly: nil data serves 503, each format sets its Content-Type,
// and an unknown format is a JSON 400.
func TestHandlerConstructors(t *testing.T) {
	prof := BuildProfile(core.Partial{}, 3, 0, 1)
	st := Status{State: "running", Workers: 2, Policy: "block"}

	type probe struct {
		name     string
		url      string
		wantCode int
		wantCT   string
		wantBody string
	}

	t.Run("profile", func(t *testing.T) {
		h := NewProfileHandler(func() *Profile { return prof })
		for _, p := range []probe{
			{"json", "/profile", 200, "application/json; charset=utf-8", `"seq"`},
			{"text", "/profile?format=text", 200, "text/plain; charset=utf-8", "rolling profile seq 3"},
			{"bad", "/profile?format=xml", 400, "application/json; charset=utf-8", "unsupported format"},
		} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", p.url, nil))
			if rr.Code != p.wantCode || rr.Header().Get("Content-Type") != p.wantCT ||
				!strings.Contains(rr.Body.String(), p.wantBody) {
				t.Errorf("%s: code %d CT %q body %.80q; want %d %q containing %q",
					p.name, rr.Code, rr.Header().Get("Content-Type"), rr.Body.String(),
					p.wantCode, p.wantCT, p.wantBody)
			}
		}
		h = NewProfileHandler(func() *Profile { return nil })
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/profile", nil))
		if rr.Code != 503 {
			t.Errorf("nil profile: code %d, want 503", rr.Code)
		}
	})

	t.Run("status", func(t *testing.T) {
		h := NewStatusHandler(func() Status { return st })
		for _, p := range []probe{
			{"html", "/statusz", 200, "text/html; charset=utf-8", "<html"},
			{"json", "/statusz?format=json", 200, "application/json; charset=utf-8", `"state"`},
			{"text", "/statusz?format=text", 200, "text/plain; charset=utf-8", "state running"},
		} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", p.url, nil))
			if rr.Code != p.wantCode || rr.Header().Get("Content-Type") != p.wantCT ||
				!strings.Contains(rr.Body.String(), p.wantBody) {
				t.Errorf("%s: code %d CT %q body %.80q; want %d %q containing %q",
					p.name, rr.Code, rr.Header().Get("Content-Type"), rr.Body.String(),
					p.wantCode, p.wantCT, p.wantBody)
			}
		}
	})
}

// TestEndpointsMap checks the engine's route map, the base every
// analyzer segment and control-room tenant mounts.
func TestEndpointsMap(t *testing.T) {
	e := New(Config{Workers: 1})
	eps := Endpoints(e)
	for _, want := range []string{"/profile", "/statusz", "/readyz"} {
		if eps[want] == nil {
			t.Errorf("Endpoints missing %s", want)
		}
	}
	if eps["/drift"] != nil {
		t.Error("drift endpoint present on a bare engine")
	}
	if eps["/query"] != nil {
		t.Error("query endpoint present on a bare engine")
	}
	rr := httptest.NewRecorder()
	eps["/readyz"].ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 {
		t.Errorf("/readyz before Run: status %d, want 503", rr.Code)
	}
}
