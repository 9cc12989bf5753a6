package historian

import (
	"math"
	"sort"
	"time"

	"uncharted/internal/physical"
	"uncharted/internal/protocol"
)

// Samples is a time-ordered query result. It implements physical.View,
// so the event-signature detectors (DetectSync, DetectUnmetLoad,
// CorrelateAGC) run over replayed history exactly as over live state.
type Samples []physical.Sample

// Len implements physical.View.
func (s Samples) Len() int { return len(s) }

// Sample implements physical.View.
func (s Samples) Sample(i int) physical.Sample { return s[i] }

// Query returns a point's samples with from <= T <= to, merging
// on-disk blocks with the in-memory tail. Zero from/to mean unbounded
// on that side. Results are stably time-sorted, so equal-timestamp
// samples keep append order — the same tie-break physical.Store.Feed
// applies in memory.
func (st *Store) Query(key PointKey, from, to time.Time) (Samples, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fromN, toN := rangeNanos(from, to)

	var out []physical.Sample
	segs := append(append([]*segment(nil), st.sealed...), st.active)
	for _, seg := range segs {
		pm, ok := seg.points[key]
		if !ok {
			continue
		}
		for _, bm := range pm.Blocks {
			if bm.Last < fromN || bm.First > toN {
				continue // sparse index: skip non-overlapping blocks
			}
			payload, err := seg.readRecordPayload(key, bm)
			if err != nil {
				return nil, err
			}
			samples, err := DecodeBlock(payload)
			if err != nil {
				return nil, err
			}
			for _, s := range samples {
				if n := s.T.UnixNano(); n >= fromN && n <= toN {
					out = append(out, s)
				}
			}
		}
	}
	if buf := st.stations[key.Station][key.IOA]; buf != nil {
		for k := range buf.chunks {
			for _, s := range buf.live(k) {
				if s.t >= fromN && s.t <= toN {
					out = append(out, physical.Sample{T: time.Unix(0, s.t).UTC(), V: s.v})
				}
			}
		}
	}
	sortSamples(out)
	return out, nil
}

func rangeNanos(from, to time.Time) (int64, int64) {
	fromN := int64(math.MinInt64)
	if !from.IsZero() {
		fromN = from.UnixNano()
	}
	toN := int64(math.MaxInt64)
	if !to.IsZero() {
		toN = to.UnixNano()
	}
	return fromN, toN
}

// Bucket is one downsampled aggregate of a point over [Start,
// Start+step).
type Bucket struct {
	Start time.Time
	Min   float64
	Max   float64
	Mean  float64
	Count int
}

// Downsample queries a range and aggregates it into step-wide buckets
// (min/max/mean/count), the shape dashboards plot over long horizons.
func (st *Store) Downsample(key PointKey, from, to time.Time, step time.Duration) ([]Bucket, error) {
	if step <= 0 {
		step = time.Minute
	}
	samples, err := st.Query(key, from, to)
	if err != nil {
		return nil, err
	}
	var out []Bucket
	i := 0
	for i < len(samples) {
		start := samples[i].T.Truncate(step)
		end := start.Add(step)
		b := Bucket{Start: start, Min: math.Inf(1), Max: math.Inf(-1)}
		var sum float64
		for i < len(samples) && samples[i].T.Before(end) {
			v := samples[i].V
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
			sum += v
			b.Count++
			i++
		}
		b.Mean = sum / float64(b.Count)
		out = append(out, b)
	}
	return out, nil
}

// PointInfo describes one stored point for the catalog.
type PointInfo struct {
	Key     PointKey
	Type    physical.PointType
	Command bool
	Samples int64 // on disk + buffered
	Blocks  int
	Bytes   int64 // compressed payload bytes on disk
	First   time.Time
	Last    time.Time
}

// Catalog lists every stored point with its sample count, compressed
// footprint, and time extent.
func (st *Store) Catalog() []PointInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	infos := make(map[PointKey]*PointInfo)
	var order []PointKey
	get := func(key PointKey, typ, flags byte) *PointInfo {
		pi, ok := infos[key]
		if !ok {
			pi = &PointInfo{Key: key, Type: pointType(typ, flags), Command: flags&flagCommand != 0}
			infos[key] = pi
			order = append(order, key)
		}
		return pi
	}
	segs := append(append([]*segment(nil), st.sealed...), st.active)
	for _, seg := range segs {
		for _, key := range seg.order {
			pm := seg.points[key]
			pi := get(key, pm.Type, pm.Flags)
			pi.Samples += pm.Samples
			pi.Blocks += len(pm.Blocks)
			for _, bm := range pm.Blocks {
				pi.Bytes += int64(bm.Bytes)
				extend(pi, time.Unix(0, bm.First).UTC(), time.Unix(0, bm.Last).UTC())
			}
		}
	}
	for _, buf := range st.order {
		if buf.n == 0 {
			continue
		}
		pi := get(buf.key, buf.typ, buf.flags)
		pi.Samples += int64(buf.n)
		first, last := int64(math.MaxInt64), int64(math.MinInt64)
		for k := range buf.chunks {
			for _, s := range buf.live(k) {
				first, last = min(first, s.t), max(last, s.t)
			}
		}
		extend(pi, time.Unix(0, first).UTC(), time.Unix(0, last).UTC())
	}
	out := make([]PointInfo, 0, len(order))
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Station != b.Station {
			return a.Station < b.Station
		}
		return a.IOA < b.IOA
	})
	for _, key := range order {
		out = append(out, *infos[key])
	}
	return out
}

func extend(pi *PointInfo, first, last time.Time) {
	if pi.First.IsZero() || first.Before(pi.First) {
		pi.First = first
	}
	if last.After(pi.Last) {
		pi.Last = last
	}
}

// SeriesFor materialises a point's full history as a *physical.Series
// — the bridge from durable storage back to the in-memory analysis
// API.
func (st *Store) SeriesFor(key PointKey, from, to time.Time) (*physical.Series, error) {
	st.mu.Lock()
	typ, flags := byte(0), byte(0)
	if buf := st.stations[key.Station][key.IOA]; buf != nil {
		typ, flags = buf.typ, buf.flags
	} else {
		segs := append(append([]*segment(nil), st.sealed...), st.active)
		for _, seg := range segs {
			if pm, ok := seg.points[key]; ok {
				typ, flags = pm.Type, pm.Flags
				break
			}
		}
	}
	st.mu.Unlock()
	command := flags&flagCommand != 0
	samples, err := st.Query(key, from, to)
	if err != nil {
		return nil, err
	}
	return &physical.Series{
		Key:     physical.SeriesKey{Station: key.Station, IOA: key.IOA},
		Type:    pointType(typ, flags),
		Command: command,
		Samples: samples,
	}, nil
}

// pointType recomposes a record's full point type from its stored type
// byte and the dialect nibble of its flags.
func pointType(typ, flags byte) physical.PointType {
	return physical.TypeOf(protocol.ID(flags>>flagProtoShift), typ)
}
