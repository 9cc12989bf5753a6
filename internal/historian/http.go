package historian

import (
	"encoding/json"
	"fmt"
	"io"
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
		if err := writeSampleRows(w, samples); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
	})
}

// writeSampleRows writes samples as /query's JSON rows — byte for byte
// what obs.WriteIndentedJSON writes for them as a list of
// {"t": time, "v": value} objects, in one Write, without reflection or
// a second indenting pass: a point query is the document a control room
// misses on most. A NaN or infinite value, or a time whose year or zone
// encoding/json refuses, fails the document as the generic renderer
// does: nothing is written and its error is returned.
func writeSampleRows(w io.Writer, samples Samples) error {
	return obs.WriteAppended(w, func(b []byte) ([]byte, error) {
		b = append(b, '[')
		var err error
		for i, s := range samples {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n  {\n    \"t\": "...)
			if b, err = obs.AppendJSONTime(b, s.T); err != nil {
				return b, err
			}
			b = append(b, ",\n    \"v\": "...)
			if b, err = obs.AppendJSONFloat(b, s.V); err != nil {
				return b, err
			}
			b = append(b, "\n  }"...)
		}
		if len(samples) > 0 {
			b = append(b, '\n')
		}
		return append(b, "]\n"...), nil
	})
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
