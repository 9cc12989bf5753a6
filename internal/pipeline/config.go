package pipeline

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// NodeConfig declares one segment instance in a pipeline graph.
type NodeConfig struct {
	// ID names the node inside its pipeline; edges reference it.
	ID string `json:"id"`
	// Kind is the registered segment kind.
	Kind string `json:"segment"`
	// From lists the upstream node IDs feeding this node. Empty for
	// inputs; every consumer of a node shares its output (implicit
	// fan-out/tee).
	From []string `json:"from,omitempty"`
	// Params is the segment's parameter object, validated against the
	// kind's declared schema.
	Params json.RawMessage `json:"params,omitempty"`
}

// PipelineConfig declares one named pipeline: a DAG of segments.
type PipelineConfig struct {
	// Name routes the pipeline's HTTP surface (/pipelines/{name}/...)
	// and labels its metrics. Must be a clean path element.
	Name string `json:"name"`
	// Nodes is the segment list. Declaration order is free: edges may
	// reference nodes declared later.
	Nodes []NodeConfig `json:"segments"`
}

// Config is the top-level document: every pipeline one process runs.
type Config struct {
	Pipelines []PipelineConfig `json:"pipelines"`
}

// ConfigError is one validation failure, locating the offending spot
// in the config file. Line is 0 when the error is not attributable to
// a single line (e.g. a cycle).
type ConfigError struct {
	File  string
	Line  int
	Where string
	Msg   string
}

func (e *ConfigError) Error() string {
	var b strings.Builder
	if e.File != "" {
		b.WriteString(e.File)
		if e.Line > 0 {
			fmt.Fprintf(&b, ":%d", e.Line)
		}
		b.WriteString(": ")
	}
	if e.Where != "" {
		b.WriteString(e.Where)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

// Parse decodes and graph-checks a pipeline config document (JSONC,
// read by Decode); file names the source in errors. All failures are
// reported together.
func Parse(data []byte, file string) (*Config, error) {
	var cfg Config
	lines, err := Decode(data, file, &cfg)
	if err == nil {
		err = cfg.Check(file, lines)
	}
	if err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Lines locates a decoded document's array elements: the line each
// starts on, by its path from the top-level object, e.g.
// "pipelines[0].segments[2]".
type Lines map[string]int

// Decode reads the JSONC document data into v, a pointer to a struct,
// strictly: comments and trailing commas are stripped first
// (StripJSONC), a syntax or type error names its line, and every
// object key that names no field of its struct is an error naming the
// key, its line and where it sits — encoding/json would drop it, and
// the value it meant would silently take its default. On success it
// returns where the document's array elements start.
func Decode(data []byte, file string, v any) (Lines, error) {
	clean := StripJSONC(data)
	if err := json.Unmarshal(clean, v); err != nil {
		line := 0
		var syn *json.SyntaxError
		var typ *json.UnmarshalTypeError
		switch {
		case errors.As(err, &syn):
			line = lineAt(clean, syn.Offset)
		case errors.As(err, &typ):
			line = lineAt(clean, typ.Offset)
		}
		return nil, &ConfigError{File: file, Line: line, Msg: err.Error()}
	}
	w := keyWalk{dec: json.NewDecoder(bytes.NewReader(clean)), data: clean, file: file, lines: Lines{}}
	w.value(reflect.ValueOf(v).Elem(), "", "")
	if len(w.errs) > 0 {
		return nil, errors.Join(w.errs...)
	}
	return w.lines, nil
}

// Validate checks a programmatically built config (presets, tests).
func (c *Config) Validate() error { return c.Check("", nil) }

// Check runs every graph check and joins all failures, locating each
// in file by lines (Decode's, for the document that holds c.Pipelines
// under its top-level "pipelines" key; nil leaves lines out).
func (c *Config) Check(file string, lines Lines) error {
	var errs []error
	fail := func(pi, ni int, where, msg string) {
		path := fmt.Sprintf("pipelines[%d]", pi)
		if ni >= 0 {
			path += fmt.Sprintf(".segments[%d]", ni)
		}
		errs = append(errs, &ConfigError{File: file, Line: lines[path], Where: where, Msg: msg})
	}

	if len(c.Pipelines) == 0 {
		errs = append(errs, &ConfigError{File: file, Msg: "config declares no pipelines"})
	}
	seenPipes := map[string]bool{}
	for pi := range c.Pipelines {
		p := &c.Pipelines[pi]
		pwhere := fmt.Sprintf("pipeline %q", p.Name)
		if p.Name == "" {
			pwhere = fmt.Sprintf("pipelines[%d]", pi)
			fail(pi, -1, pwhere, "pipeline has no name")
		} else if !ValidName(p.Name) {
			fail(pi, -1, pwhere, "name must be letters, digits, '-' or '_'")
		}
		if seenPipes[p.Name] {
			fail(pi, -1, pwhere, "duplicate pipeline name")
		}
		seenPipes[p.Name] = true
		if len(p.Nodes) == 0 {
			fail(pi, -1, pwhere, "pipeline has no segments")
			continue
		}

		byID := map[string]*NodeConfig{}
		for ni := range p.Nodes {
			n := &p.Nodes[ni]
			where := fmt.Sprintf("%s segment %q", pwhere, n.ID)
			if n.ID == "" {
				where = fmt.Sprintf("%s segments[%d]", pwhere, ni)
				fail(pi, ni, where, "segment has no id")
				continue
			}
			if !ValidName(n.ID) {
				fail(pi, ni, where, "id must be letters, digits, '-' or '_'")
			}
			if _, dup := byID[n.ID]; dup {
				fail(pi, ni, where, "duplicate segment id")
				continue
			}
			byID[n.ID] = n
		}

		hasInput := false
		for ni := range p.Nodes {
			n := &p.Nodes[ni]
			where := fmt.Sprintf("%s segment %q", pwhere, n.ID)
			spec, ok := Lookup(n.Kind)
			if !ok {
				fail(pi, ni, where, fmt.Sprintf("unknown segment kind %q (run `unchartedd -segments` for the catalog)", n.Kind))
				continue
			}
			if _, err := parseParams(spec.Params, n.Params); err != nil {
				fail(pi, ni, where, err.Error())
			}
			if spec.In == PortNone {
				hasInput = true
				if len(n.From) > 0 {
					fail(pi, ni, where, fmt.Sprintf("%q is an input segment and cannot have \"from\"", n.Kind))
				}
				continue
			}
			if len(n.From) == 0 {
				fail(pi, ni, where, fmt.Sprintf("%q consumes %s but has no \"from\"", n.Kind, spec.In))
				continue
			}
			for _, from := range n.From {
				up, ok := byID[from]
				if !ok {
					fail(pi, ni, where, fmt.Sprintf("dangling edge: \"from\" references unknown segment %q", from))
					continue
				}
				if up == n {
					// Reported by the cycle check below with a clearer message.
					continue
				}
				upSpec, ok := Lookup(up.Kind)
				if !ok {
					continue // already reported on the upstream node
				}
				if upSpec.Out == PortNone {
					fail(pi, ni, where, fmt.Sprintf("segment %q (%s) is terminal and produces no output", from, up.Kind))
					continue
				}
				if upSpec.Out != spec.In {
					fail(pi, ni, where, fmt.Sprintf("port type mismatch: %q (%s) emits %s but %q consumes %s",
						from, up.Kind, upSpec.Out, n.Kind, spec.In))
				}
			}
		}
		if !hasInput && len(byID) > 0 {
			fail(pi, -1, pwhere, "pipeline has no input segment")
		}

		for _, cyc := range findCycles(p.Nodes) {
			fail(pi, -1, pwhere, "cycle: "+cyc)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.Join(errs...)
}

// findCycles reports each cycle in the edge set once, rendered as
// "a -> b -> a".
func findCycles(nodes []NodeConfig) []string {
	idx := map[string]int{}
	for i := range nodes {
		if nodes[i].ID != "" {
			idx[nodes[i].ID] = i
		}
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, len(nodes))
	var stack []string
	var cycles []string
	var visit func(i int)
	visit = func(i int) {
		state[i] = inStack
		stack = append(stack, nodes[i].ID)
		for _, from := range nodes[i].From {
			j, ok := idx[from]
			if !ok {
				continue
			}
			switch state[j] {
			case inStack:
				// Render the cycle from its first occurrence on the stack.
				start := 0
				for k, id := range stack {
					if id == from {
						start = k
						break
					}
				}
				cycles = append(cycles, strings.Join(append(append([]string{}, stack[start:]...), from), " -> "))
			case unvisited:
				visit(j)
			}
		}
		stack = stack[:len(stack)-1]
		state[i] = done
	}
	for i := range nodes {
		if state[i] == unvisited {
			visit(i)
		}
	}
	return cycles
}

// ValidName reports whether s can name a pipeline, segment or tenant:
// letters, digits, '-' or '_', and not empty.
func ValidName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return s != ""
}

// StripJSONC blanks // and /* */ comments and trailing commas before
// ] or } with spaces: the result has the input's length and its
// newlines, so every byte offset maps to the original line.
func StripJSONC(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	const (
		code = iota
		inString
		lineComment
		blockComment
	)
	state := code
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch state {
		case code:
			switch {
			case c == '"':
				state = inString
			case c == '/' && i+1 < len(out) && out[i+1] == '/':
				state = lineComment
				out[i] = ' '
			case c == '/' && i+1 < len(out) && out[i+1] == '*':
				state = blockComment
				out[i] = ' '
			}
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				state = code
			}
		case lineComment:
			if c == '\n' {
				state = code
			} else {
				out[i] = ' '
			}
		case blockComment:
			if c == '*' && i+1 < len(out) && out[i+1] == '/' {
				out[i], out[i+1] = ' ', ' '
				i++
				state = code
			} else if c != '\n' {
				out[i] = ' '
			}
		}
	}
	// Trailing commas: blank a comma whose next non-space byte closes a
	// container.
	state = code
	for i := 0; i < len(out); i++ {
		c := out[i]
		if state == inString {
			if c == '\\' {
				i++
			} else if c == '"' {
				state = code
			}
			continue
		}
		if c == '"' {
			state = inString
			continue
		}
		if c != ',' {
			continue
		}
		for j := i + 1; j < len(out); j++ {
			n := out[j]
			if n == ' ' || n == '\t' || n == '\n' || n == '\r' {
				continue
			}
			if n == ']' || n == '}' {
				out[i] = ' '
			}
			break
		}
	}
	return out
}

// lineAt converts a byte offset to a 1-based line number.
func lineAt(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

// keyWalk re-reads a document that decoded without error, alongside
// the value it decoded into, to find what json.Unmarshal ignores: keys
// that name no struct field. It records each array element's line on
// the way.
type keyWalk struct {
	dec   *json.Decoder
	data  []byte
	file  string
	lines Lines
	errs  []error
}

var unmarshalerType = reflect.TypeFor[json.Unmarshaler]()

// value walks the JSON value at the decoder's position, which decoded
// into v (invalid for a value nothing decoded); path is its Lines path
// and where its location in errors. A value decoded by its own
// UnmarshalJSON (a duration, raw segment params) is opaque.
func (w *keyWalk) value(v reflect.Value, path, where string) {
	tok, err := w.dec.Token()
	if err != nil {
		return
	}
	d, ok := tok.(json.Delim)
	if !ok {
		return
	}
	opaque := !v.IsValid() || reflect.PointerTo(v.Type()).Implements(unmarshalerType)
	switch {
	case d == '{' && !opaque && v.Kind() == reflect.Struct:
		w.object(v, path, where)
	case d == '[' && !opaque && v.Kind() == reflect.Slice:
		w.array(v, path, where)
	default:
		for depth := 1; depth > 0; {
			tok, err := w.dec.Token()
			if err != nil {
				return
			}
			switch tok {
			case json.Delim('{'), json.Delim('['):
				depth++
			case json.Delim('}'), json.Delim(']'):
				depth--
			}
		}
	}
}

// object walks a struct's keys once its '{' is read.
func (w *keyWalk) object(v reflect.Value, path, where string) {
	fields := jsonFields(v.Type())
	for w.dec.More() {
		at := elemStart(w.data, w.dec.InputOffset())
		tok, err := w.dec.Token()
		if err != nil {
			return
		}
		key, _ := tok.(string)
		i, ok := fields[key]
		if !ok {
			known := make([]string, 0, len(fields))
			for k := range fields {
				known = append(known, k)
			}
			sort.Strings(known)
			w.errs = append(w.errs, &ConfigError{File: w.file, Line: lineAt(w.data, at), Where: where,
				Msg: fmt.Sprintf("unknown key %q (want %s)", key, strings.Join(known, ", "))})
			w.value(reflect.Value{}, "", "")
			continue
		}
		fv, fpath, fwhere := v.Field(i), key, where
		if path != "" {
			fpath = path + "." + key
		}
		if fv.Kind() == reflect.Struct {
			fwhere = strings.TrimSpace(where + " " + key)
		}
		w.value(fv, fpath, fwhere)
	}
	w.dec.Token() // }
}

// array walks a slice's elements once its '[' is read. An element
// that names itself ("name" or "id") sits at where + `tenant "east"`
// for a "tenants" array, any other at where + "tenants[1]".
func (w *keyWalk) array(v reflect.Value, path, where string) {
	key := path[strings.LastIndexByte(path, '.')+1:]
	for i := 0; w.dec.More(); i++ {
		at := fmt.Sprintf("%s[%d]", path, i)
		w.lines[at] = lineAt(w.data, elemStart(w.data, w.dec.InputOffset()))
		var ev reflect.Value
		if i < v.Len() {
			ev = v.Index(i)
		}
		ewhere := fmt.Sprintf("%s[%d]", key, i)
		if name := elemName(ev); name != "" {
			ewhere = fmt.Sprintf("%s %q", strings.TrimSuffix(key, "s"), name)
		}
		w.value(ev, at, strings.TrimSpace(where+" "+ewhere))
	}
	w.dec.Token() // ]
}

// jsonFields maps a struct's JSON keys to its field indexes.
func jsonFields(t reflect.Type) map[string]int {
	fields := make(map[string]int, t.NumField())
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		fields[cmp.Or(name, f.Name)] = i
	}
	return fields
}

// elemName is a decoded struct's "name" or "id" field, if it has one.
func elemName(v reflect.Value) string {
	if !v.IsValid() || v.Kind() != reflect.Struct {
		return ""
	}
	fields := jsonFields(v.Type())
	for _, key := range []string{"name", "id"} {
		if i, ok := fields[key]; ok && v.Field(i).Kind() == reflect.String {
			return v.Field(i).String()
		}
	}
	return ""
}

// elemStart advances past whitespace and the element separator to the
// first byte of the next array element.
func elemStart(data []byte, off int64) int64 {
	for off < int64(len(data)) {
		switch data[off] {
		case ' ', '\t', '\n', '\r', ',':
			off++
		default:
			return off
		}
	}
	return off
}
