package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
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
// Every JSON surface of the system (profile, statusz, drift, the query
// catalog, pipeline status, the service's own documents, /debug/vars)
// renders through here; a point query's sample rows are appended
// directly, byte for byte what this writes for them. On a marshal
// error nothing is written.
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
