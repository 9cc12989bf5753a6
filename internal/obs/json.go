package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// indentedJSON is one pooled renderer: an Encoder bound to its own
// buffer, so the indent scratch the Encoder grows on its first large
// document is kept for the next one.
type indentedJSON struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var indentedJSONPool = sync.Pool{New: func() any {
	j := &indentedJSON{}
	j.enc = json.NewEncoder(&j.buf)
	j.enc.SetIndent("", "  ")
	return j
}}

// maxPooledJSON keeps a one-off multi-megabyte document (a /debug/vars
// of a large registry) from pinning its buffer in the pool.
const maxPooledJSON = 1 << 20

// WriteIndentedJSON renders v as two-space-indented JSON with a
// trailing newline — byte for byte what a fresh json.Encoder with
// SetIndent("", "  ") writes — and hands it to w in a single Write.
// Every JSON surface of the system (statusz, drift, the query catalog,
// pipeline status, the service's own documents, /debug/vars) renders
// through here, except the two documents a control room misses on
// most, which are appended directly through WriteAppended and the
// AppendJSON* helpers below, byte for byte what this writes for them:
// the rolling profile (stream.Profile.AppendJSON) and a point query's
// sample rows. On a marshal error nothing is written.
func WriteIndentedJSON(w io.Writer, v any) error {
	j := indentedJSONPool.Get().(*indentedJSON)
	j.buf.Reset()
	err := j.enc.Encode(v)
	if err == nil {
		_, err = w.Write(j.buf.Bytes())
	}
	if j.buf.Cap() <= maxPooledJSON {
		indentedJSONPool.Put(j)
	}
	return err
}

var appendBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteAppended appends a document into a pooled buffer with appendDoc
// and hands it to w in a single Write; when appendDoc fails nothing is
// written and its error is returned.
func WriteAppended(w io.Writer, appendDoc func([]byte) ([]byte, error)) error {
	bp := appendBufPool.Get().(*[]byte)
	b, err := appendDoc((*bp)[:0])
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledJSON {
		*bp = b
		appendBufPool.Put(bp)
	}
	return err
}

// AppendJSONFloat appends f the way encoding/json encodes a float64:
// shortest round-trip digits, exponent form only below 1e-6 or from
// 1e21, and a one-digit negative exponent without its leading 0. A NaN
// or infinite f, which encoding/json refuses, appends nothing and
// returns the *json.UnsupportedValueError it would.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a quoted JSON string the way
// encoding/json writes it by default: control bytes, quote and
// backslash escaped, <, > and & escaped for HTML, U+2028 and U+2029
// escaped for JSONP, and each invalid UTF-8 byte replaced by \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendJSONTime appends t as time.Time's MarshalJSON writes it: quoted
// RFC 3339 with nanoseconds, in t's own zone, without a monotonic
// reading. A year outside [0,9999] or a zone offset of 24 hours or
// more, which MarshalJSON refuses, appends nothing and returns the
// *json.MarshalerError encoding/json would.
func AppendJSONTime(b []byte, t time.Time) ([]byte, error) {
	n0 := len(b)
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	// The checks of time.Time.appendStrictRFC3339.
	bad := b[n0+1+len("9999")] != '-'
	if !bad && b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		h := b[len(b)-len("07:00"):]
		bad = '0' <= c && c <= '9' || 10*(h[0]-'0')+(h[1]-'0') >= 24
	}
	if bad {
		_, err := t.MarshalJSON()
		return b[:n0], &json.MarshalerError{Type: reflect.TypeOf(t), Err: err}
	}
	return append(b, '"'), nil
}
