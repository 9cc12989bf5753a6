package iec104

import (
	"errors"
	"math"
)

// ErrNoProfile is returned by DetectProfile when no candidate dialect
// yields a plausible decode.
var ErrNoProfile = errors.New("iec104: no candidate profile decodes this frame plausibly")

// DetectionResult reports how a candidate profile fared against a
// frame.
type DetectionResult struct {
	Profile Profile
	// Score is the plausibility score; higher is better. Profiles
	// that fail to decode at all are omitted from Candidates.
	Score float64
	Err   error
}

// DetectProfile determines which dialect a raw APDU (starting at the
// 0x68 octet) is encoded with. It mirrors how the paper's authors
// diagnosed the malformed captures: Wireshark's strict parser flagged
// invalid IOA addresses and random-looking measurements, which are
// exactly the symptoms of decoding legacy IEC 101 field sizes with
// IEC 104 offsets. Each candidate profile must
//
//   - consume the ASDU exactly (the object count times the element size
//     must match the APCI length),
//   - produce a valid cause of transmission,
//   - produce plausible IOAs (non-zero for process information, within
//     a sane range, not using reserved high bytes), and
//   - produce measurement values that are not absurd (quality reserved
//     bits clear, floats finite and of reasonable magnitude).
//
// The highest-scoring candidate wins; Standard wins ties so compliant
// traffic is never misreported as legacy.
func DetectProfile(frame []byte) (Profile, []DetectionResult, error) {
	var results []DetectionResult
	best := -1
	bestScore := math.Inf(-1)
	for _, p := range CandidateProfiles {
		apdu, _, err := ParseAPDU(frame, p)
		if err != nil {
			results = append(results, DetectionResult{Profile: p, Score: math.Inf(-1), Err: err})
			continue
		}
		if apdu.Format != FormatI {
			// Control frames carry no ASDU: every profile decodes
			// them identically, so report Standard.
			return Standard, []DetectionResult{{Profile: Standard, Score: 1}}, nil
		}
		score := plausibility(apdu.ASDU, p)
		results = append(results, DetectionResult{Profile: p, Score: score})
		if score > bestScore {
			bestScore = score
			best = len(results) - 1
		}
	}
	if best < 0 || math.IsInf(bestScore, -1) {
		return Profile{}, results, ErrNoProfile
	}
	return results[best].Profile, results, nil
}

// plausibility scores a successfully decoded ASDU. A decode that
// consumed the buffer exactly already passed the hard structural check;
// the remaining signals separate "decodes by coincidence" from the real
// dialect.
func plausibility(a *ASDU, p Profile) float64 {
	score := 0.0
	if p.IsStandard() {
		score += 0.5 // prefer the compliant reading on ties
	}
	// Valid, commonly used cause.
	switch a.COT.Cause {
	case CausePeriodic, CauseSpontaneous, CauseInrogen, CauseActivation,
		CauseActConfirm, CauseActTerm, CauseRequest, CauseInitialized, CauseBackground:
		score += 2
	default:
		if a.COT.Cause.Valid() {
			score += 0.5
		}
	}
	// Originator addresses are nearly always 0 in the field; a nonzero
	// value often means we swallowed a data byte into the COT.
	if p.COTSize == 2 && a.COT.Orig != 0 {
		score -= 1.5
	}
	if a.CommonAddr == 0 || a.CommonAddr == 0xFFFF {
		score -= 1
	}
	for _, obj := range a.Objects {
		score += objectPlausibility(a.Type, obj)
	}
	return score
}

func objectPlausibility(t TypeID, obj InfoObject) float64 {
	s := 0.0
	// Process information at IOA 0 is invalid; interrogation and other
	// station-scoped commands legitimately use 0.
	switch t {
	case CIcNa, CCiNa, CCsNa, CRpNa, MEiNa:
		if obj.IOA == 0 {
			s += 1
		}
	default:
		if obj.IOA == 0 {
			s -= 2
		}
	}
	// Field IOAs cluster low; a high byte in use suggests misaligned
	// decoding (the "invalid IOA addresses" Wireshark flagged).
	switch {
	case obj.IOA < 1<<14:
		s += 1
	case obj.IOA < 1<<16:
		s += 0.25
	default:
		s -= 2
	}
	// Quality reserved bits (0x0E of the QDS octet) must be zero in
	// compliant traffic. decodeElement folded defined bits into
	// Quality; re-check the raw octet where applicable.
	if q := qualityOctetOf(t, obj.Raw); q >= 0 && q&0x0E != 0 {
		s -= 2
	}
	// Short floats decoded at the wrong offset look like random bit
	// patterns: denormals, NaNs, or astronomically large magnitudes.
	if obj.Value.Kind == KindFloat || (obj.Value.Kind == KindCommand && (t == CSeNc || t == CSeTc)) {
		f := obj.Value.Float
		switch {
		case math.IsNaN(f) || math.IsInf(f, 0):
			s -= 3
		case f != 0 && (math.Abs(f) < 1e-20 || math.Abs(f) > 1e12):
			s -= 2
		default:
			s += 1
		}
	}
	if obj.Value.HasTime && !obj.Value.Time.Invalid {
		y := obj.Value.Time.Time.Year()
		if y >= 2000 && y <= 2069 {
			s += 0.5
		} else {
			s -= 1
		}
	}
	return s
}

// qualityOctetOf returns the raw QDS octet for types that carry one, or
// -1 when the type has no QDS.
func qualityOctetOf(t TypeID, raw []byte) int {
	var idx int
	switch t {
	case MMeNa, MMeNb, MSpNa, MDpNa: // QDS / SIQ / DIQ is part of octet 0 for SP/DP
		switch t {
		case MSpNa, MDpNa:
			return int(raw[0]) & 0x0E // reserved bits of SIQ/DIQ
		default:
			idx = 2
		}
	case MMeNc:
		idx = 4
	case MStNa:
		idx = 1
	case MBoNa, MPsNa:
		idx = 4
	case MMeTd, MMeTe:
		idx = 2
	case MMeTf:
		idx = 4
	case MSpTb, MDpTb:
		return int(raw[0]) & 0x0E
	case MStTb:
		idx = 1
	case MBoTb:
		idx = 4
	default:
		return -1
	}
	if idx >= len(raw) {
		return -1
	}
	return int(raw[idx]) & 0x0E
}

// TolerantParser decodes APDU streams whose dialect is unknown,
// learning and caching the profile per logical endpoint. This is the
// parser the paper built (and released) to analyse the non-compliant
// outstations.
type TolerantParser struct {
	// ids maps an endpoint key to its slot in eps. The slots sit in one
	// slice, so an endpoint costs no heap object of its own and a caller
	// that resolved the key once (Endpoint) reaches the slot without
	// hashing a string per frame.
	ids map[string]EndpointID
	eps []endpointSlot
	// Detections counts how many frames were profile-detected (as
	// opposed to served from the per-endpoint cache).
	Detections int

	// detAPDU/detASDU are the detection scratch pair: candidate sweeps
	// decode into them instead of allocating a fresh APDU per profile,
	// so re-detection (every unpinned frame; multiplied per shard under
	// a sharded engine) stays allocation-free.
	detAPDU APDU
	detASDU ASDU
}

// detect is DetectProfile over the parser's scratch pair, without
// materializing the per-candidate result list. Decision-for-decision
// identical: candidates are tried in the same order, scored by the
// same plausibility function, and ties break the same way (strict >
// keeps the earliest best, so Standard wins).
func (tp *TolerantParser) detect(frame []byte) (Profile, error) {
	var best Profile
	bestScore := math.Inf(-1)
	found := false
	for _, p := range CandidateProfiles {
		if _, err := ParseAPDUInto(&tp.detAPDU, &tp.detASDU, frame, p, true); err != nil {
			continue
		}
		if tp.detAPDU.Format != FormatI {
			// Control frames carry no ASDU: every profile decodes them
			// identically, so report Standard.
			return Standard, nil
		}
		if score := plausibility(tp.detAPDU.ASDU, p); score > bestScore {
			bestScore = score
			best = p
			found = true
		}
	}
	if !found || math.IsInf(bestScore, -1) {
		return Profile{}, ErrNoProfile
	}
	return best, nil
}

// StrictPlausible reports whether the frame passes the §6.1 Wireshark
// test: it parses under the Standard profile and, for I-frames,
// detection also picks Standard. Equivalent to a strict ParseAPDU
// followed by DetectProfile, but runs over the parser's scratch pair so
// the per-frame check (every frame of an undetected station, repeated
// per analysis shard) allocates nothing.
func (tp *TolerantParser) StrictPlausible(frame []byte) bool {
	if _, err := ParseAPDUInto(&tp.detAPDU, &tp.detASDU, frame, Standard, true); err != nil {
		return false
	}
	if tp.detAPDU.Format != FormatI {
		return true
	}
	p, err := tp.detect(frame)
	if err != nil {
		return false
	}
	return p.IsStandard()
}

// NewTolerantParser returns a parser with an empty endpoint cache.
func NewTolerantParser() *TolerantParser {
	return &TolerantParser{ids: make(map[string]EndpointID)}
}

// EndpointID is an endpoint key resolved to its slot in one parser's
// dialect cache; it means nothing to another parser.
type EndpointID int32

// endpointSlot is one endpoint's learned dialect.
type endpointSlot struct {
	profile Profile
	pinned  bool
}

// Endpoint resolves an endpoint key (typically the sender's address),
// creating an unpinned slot the first time a key is seen. Callers that
// parse many frames of one endpoint resolve it once and use the *At
// methods.
func (tp *TolerantParser) Endpoint(endpoint string) EndpointID {
	id, ok := tp.ids[endpoint]
	if !ok {
		id = EndpointID(len(tp.eps))
		tp.eps = append(tp.eps, endpointSlot{})
		tp.ids[endpoint] = id
	}
	return id
}

// ProfileFor returns the cached dialect for an endpoint key, and
// whether one is cached.
func (tp *TolerantParser) ProfileFor(endpoint string) (Profile, bool) {
	id, ok := tp.ids[endpoint]
	if !ok {
		return Profile{}, false
	}
	return tp.ProfileAt(id)
}

// ProfileAt is ProfileFor for a resolved endpoint.
func (tp *TolerantParser) ProfileAt(id EndpointID) (Profile, bool) {
	ep := &tp.eps[id]
	return ep.profile, ep.pinned
}

// SetProfile pins a dialect for an endpoint, bypassing detection.
func (tp *TolerantParser) SetProfile(endpoint string, p Profile) {
	tp.eps[tp.Endpoint(endpoint)] = endpointSlot{profile: p, pinned: true}
}

// Parse decodes every APDU in payload originating from the given
// endpoint key (typically "ip:port" of the sender). On the first
// I-format frame from an endpoint the dialect is detected and cached;
// subsequent frames use the cache. If a cached dialect later fails, the
// frame is re-detected and the cache updated.
func (tp *TolerantParser) Parse(endpoint string, payload []byte) ([]*APDU, error) {
	var out []*APDU
	off := 0
	id := tp.Endpoint(endpoint)
	for off < len(payload) {
		frame := payload[off:]
		p, cached := tp.ProfileAt(id)
		if cached {
			apdu, n, err := ParseAPDU(frame, p)
			if err == nil {
				out = append(out, apdu)
				off += n
				continue
			}
		}
		detected, _, err := DetectProfile(frame)
		if err != nil {
			return out, err
		}
		tp.Detections++
		apdu, n, err := ParseAPDU(frame, detected)
		if err != nil {
			return out, err
		}
		if apdu.Format == FormatI {
			tp.eps[id] = endpointSlot{profile: detected, pinned: true}
		}
		out = append(out, apdu)
		off += n
	}
	return out, nil
}

// ParseFrameInto decodes the single APDU at the front of frame into the
// caller-owned dst/scratch pair, using the endpoint's cached dialect
// when available and falling back to detection exactly like Parse. The
// decode aliases frame (object Raw slices point into it), so the result
// is valid only until frame's buffer or the scratch pair is reused.
// Steady-state calls (cache hit) allocate nothing; this is the
// analyzer's per-frame hot path, which always hands in exactly one
// framed APDU. Returns the number of bytes consumed.
func (tp *TolerantParser) ParseFrameInto(endpoint string, frame []byte, dst *APDU, scratch *ASDU) (int, error) {
	return tp.ParseFrameAt(tp.Endpoint(endpoint), frame, dst, scratch)
}

// ParseFrameAt is ParseFrameInto for a resolved endpoint: the per-frame
// path of a caller that keeps the EndpointID with its own per-endpoint
// state.
func (tp *TolerantParser) ParseFrameAt(id EndpointID, frame []byte, dst *APDU, scratch *ASDU) (int, error) {
	if ep := &tp.eps[id]; ep.pinned {
		n, err := ParseAPDUInto(dst, scratch, frame, ep.profile, true)
		if err == nil {
			return n, nil
		}
	}
	// Control frames (S/U) carry no ASDU and decode identically under
	// every dialect, so DetectProfile would report Standard without
	// pinning; take that answer allocation-free. This matters for
	// endpoints that only acknowledge for long stretches — every frame
	// of theirs is a cache miss, and under a sharded engine each shard
	// re-learns every endpoint, multiplying the candidate sweeps.
	if n, err := ParseAPDUInto(dst, scratch, frame, Standard, true); err == nil && dst.Format != FormatI {
		tp.Detections++
		return n, nil
	}
	detected, err := tp.detect(frame)
	if err != nil {
		return 0, err
	}
	tp.Detections++
	n, err := ParseAPDUInto(dst, scratch, frame, detected, true)
	if err != nil {
		return 0, err
	}
	if dst.Format == FormatI {
		tp.eps[id] = endpointSlot{profile: detected, pinned: true}
	}
	return n, nil
}
