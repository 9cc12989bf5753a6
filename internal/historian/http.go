package historian

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"uncharted/internal/obs"

	"uncharted/internal/physical"
)

// QueryHandler serves the historian over HTTP, designed to mount next
// to /metrics and /profile via obs.HandlerWith (and per tenant by the
// control-room service):
//
//	GET /query                                   point catalog
//	GET /query?station=O29&ioa=3001              full history of a point
//	    &from=RFC3339&to=RFC3339                 time-range bound
//	    &step=30s                                downsampled buckets
//	    &format=json|text                        JSON (default) or CSV
//
// Timestamps accept RFC 3339 or unix nanoseconds.
func QueryHandler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		format, ok := obs.PickFormat(w, req, "json", "text")
		if !ok {
			return
		}
		q := req.URL.Query()
		if format == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
		}

		station := q.Get("station")
		if station == "" {
			type catRow struct {
				Station string             `json:"station"`
				IOA     uint32             `json:"ioa"`
				Type    physical.PointType `json:"type"`
				Command bool               `json:"command"`
				Samples int64              `json:"samples"`
				Blocks  int                `json:"blocks"`
				Bytes   int64              `json:"compressed_bytes"`
				First   time.Time          `json:"first"`
				Last    time.Time          `json:"last"`
			}
			cat := st.Catalog()
			if format == "text" {
				fmt.Fprintln(w, "station,ioa,type,command,samples,blocks,compressed_bytes,first,last")
				for _, pi := range cat {
					fmt.Fprintf(w, "%s,%d,%d,%t,%d,%d,%d,%s,%s\n",
						pi.Key.Station, pi.Key.IOA, pi.Type, pi.Command, pi.Samples,
						pi.Blocks, pi.Bytes, pi.First.Format(time.RFC3339Nano), pi.Last.Format(time.RFC3339Nano))
				}
				return
			}
			rows := make([]catRow, 0, len(cat))
			for _, pi := range cat {
				rows = append(rows, catRow{
					Station: pi.Key.Station, IOA: pi.Key.IOA, Type: pi.Type,
					Command: pi.Command, Samples: pi.Samples, Blocks: pi.Blocks,
					Bytes: pi.Bytes, First: pi.First, Last: pi.Last,
				})
			}
			obs.WriteIndentedJSON(w, rows)
			return
		}

		ioa, err := strconv.ParseUint(q.Get("ioa"), 10, 32)
		if err != nil {
			httpError(w, http.StatusBadRequest, "ioa: "+err.Error())
			return
		}
		key := PointKey{Station: station, IOA: uint32(ioa)}
		from, err := parseTime(q.Get("from"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "from: "+err.Error())
			return
		}
		to, err := parseTime(q.Get("to"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "to: "+err.Error())
			return
		}

		if stepStr := q.Get("step"); stepStr != "" {
			step, err := time.ParseDuration(stepStr)
			if err != nil {
				httpError(w, http.StatusBadRequest, "step: "+err.Error())
				return
			}
			buckets, err := st.Downsample(key, from, to, step)
			if err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
			if format == "text" {
				fmt.Fprintln(w, "start,min,max,mean,count")
				for _, b := range buckets {
					fmt.Fprintf(w, "%s,%g,%g,%g,%d\n",
						b.Start.Format(time.RFC3339Nano), b.Min, b.Max, b.Mean, b.Count)
				}
				return
			}
			obs.WriteIndentedJSON(w, buckets)
			return
		}

		samples, err := st.Query(key, from, to)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if format == "text" {
			fmt.Fprintln(w, "t,v")
			for _, s := range samples {
				fmt.Fprintf(w, "%s,%g\n", s.T.Format(time.RFC3339Nano), s.V)
			}
			return
		}
		writeSampleRows(w, samples)
	})
}

// sampleRow is one /query JSON row.
type sampleRow struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// writeSampleRows writes samples as /query's JSON rows — byte for byte
// what obs.WriteIndentedJSON writes for them as []sampleRow, in one
// Write, without reflection or a second indenting pass: a point query
// is the document a control room misses on most. A NaN or infinite
// value (which encoding/json refuses) or a time outside UTC (whose year
// and offset it checks) sends the whole document down the generic
// path, so such a document comes out exactly as it always did.
func writeSampleRows(w io.Writer, samples Samples) {
	b := make([]byte, 0, 2+len(samples)*64)
	b = append(b, '[')
	for i, s := range samples {
		if math.IsNaN(s.V) || math.IsInf(s.V, 0) || s.T.Location() != time.UTC {
			rows := make([]sampleRow, len(samples))
			for i, s := range samples {
				rows[i] = sampleRow{T: s.T, V: s.V}
			}
			obs.WriteIndentedJSON(w, rows)
			return
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  {\n    \"t\": \""...)
		b = s.T.AppendFormat(b, time.RFC3339Nano)
		b = append(b, "\",\n    \"v\": "...)
		b = appendJSONFloat(b, s.V)
		b = append(b, "\n  }"...)
	}
	if len(samples) > 0 {
		b = append(b, '\n')
	}
	b = append(b, "]\n"...)
	w.Write(b)
}

// appendJSONFloat appends a finite f the way encoding/json encodes a
// float64: shortest round-trip digits, exponent form only below 1e-6 or
// from 1e21, and a one-digit negative exponent without its leading 0.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// parseTime accepts RFC 3339 or unix nanoseconds; empty means
// unbounded.
func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Unix(0, n).UTC(), nil
	}
	return time.Parse(time.RFC3339, s)
}
