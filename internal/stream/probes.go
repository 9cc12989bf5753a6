package stream

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"uncharted/internal/core"
	"uncharted/internal/drift"
)

// MaxPartialBytes bounds one posted probe partial (the full Y1 era
// profile encodes to a few MB; 64 MB leaves room for much larger
// fleets without letting a stray client exhaust memory).
const MaxPartialBytes = 64 << 20

// ProbeSet accumulates remote-probe partials: the receiving end of
// `profiler -push`, one per control-room service tenant (its
// /v1/{tenant}/partial). Each probe's latest partial replaces its
// previous one, so probes can re-post rolling updates; the fleet view
// is MergePartials over the current set, which is commutative and
// associative, so arrival order never matters. The zero value is ready
// to use.
type ProbeSet struct {
	mu      sync.Mutex
	byProbe map[string]core.Partial
	ver     uint64
}

// PartialAck describes one accepted post.
type PartialAck struct {
	Probe   string // the label the partial was stored under
	Packets int    // packets the posted partial covers
	Probes  int    // probes in the set after the post
	Version uint64 // the set's version after the post
}

// partials returns the current probe set ordered by probe label, plus
// the set's version.
func (s *ProbeSet) partials() ([]core.Partial, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.byProbe))
	for n := range s.byProbe {
		names = append(names, n)
	}
	sort.Strings(names)
	// One spare slot: Profile appends the caller's local snapshot.
	out := make([]core.Partial, 0, len(names)+1)
	for _, n := range names {
		out = append(out, s.byProbe[n])
	}
	return out, s.ver
}

// Version counts accepted posts; it moves whenever the set changes.
func (s *ProbeSet) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ver
}

// Len returns how many probes have reported.
func (s *ProbeSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byProbe)
}

// Accept folds one POSTed drift-codec profile into the set. The probe
// label comes from ?probe=, falling back to the profile's own
// Meta.Label. A rejected post leaves the set untouched and returns the
// HTTP status to answer with: 413 for a body over MaxPartialBytes, 400
// for an unreadable body, a codec error or a missing label.
func (s *ProbeSet) Accept(req *http.Request) (PartialAck, int, error) {
	body, err := io.ReadAll(io.LimitReader(req.Body, MaxPartialBytes+1))
	if err != nil {
		return PartialAck{}, http.StatusBadRequest, err
	}
	if len(body) > MaxPartialBytes {
		return PartialAck{}, http.StatusRequestEntityTooLarge, fmt.Errorf("partial exceeds %d bytes", MaxPartialBytes)
	}
	prof, err := drift.DecodeProfile(body)
	if err != nil {
		return PartialAck{}, http.StatusBadRequest, err
	}
	probe := req.URL.Query().Get("probe")
	if probe == "" {
		probe = prof.Meta.Label
	}
	if probe == "" {
		return PartialAck{}, http.StatusBadRequest, fmt.Errorf("probe label missing: set ?probe= or the profile's label")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byProbe == nil {
		s.byProbe = make(map[string]core.Partial)
	}
	s.byProbe[probe] = prof.Partial
	s.ver++
	return PartialAck{Probe: probe, Packets: prof.Partial.Packets, Probes: len(s.byProbe), Version: s.ver}, http.StatusOK, nil
}

// Profile merges the set — plus any extra partials the caller holds,
// e.g. a local engine's latest snapshot — into the fleet-wide rolling
// profile. It returns nil while there is nothing to merge. The
// profile's Seq is the set's version and Workers the number of
// partials merged.
func (s *ProbeSet) Profile(clusterK int, clusterSeed int64, extra ...core.Partial) (*Profile, core.Partial) {
	parts, ver := s.partials()
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return nil, core.Partial{}
	}
	merged := core.MergePartials(parts)
	prof := BuildProfile(merged, int(ver), clusterK, clusterSeed)
	prof.Workers = len(parts)
	return prof, merged
}
