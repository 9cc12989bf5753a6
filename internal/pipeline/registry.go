package pipeline

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// ParamType is the declared type of one segment parameter.
type ParamType string

// Parameter types. Durations accept Go duration strings ("30s") or a
// number of nanoseconds; strings lists accept JSON arrays of strings;
// ints reject fractional JSON numbers.
const (
	ParamString   ParamType = "string"
	ParamInt      ParamType = "int"
	ParamFloat    ParamType = "float"
	ParamBool     ParamType = "bool"
	ParamDuration ParamType = "duration"
	ParamStrings  ParamType = "strings"
	ParamInts     ParamType = "ints"
)

// ParamSpec declares one parameter of a segment's config schema.
type ParamSpec struct {
	Name     string
	Type     ParamType
	Required bool
	// Default documents (and supplies) the value used when the param
	// is absent; nil means the zero value.
	Default any
	Doc     string
}

// Spec declares a registered segment kind: its ports, its parameter
// schema and its factory.
type Spec struct {
	// Kind is the registry key config files reference ("pcap", "analyzer", ...).
	Kind string
	// Role groups the segment in the catalog.
	Role Role
	// In / Out are the port types; PortNone for inputs' In and
	// terminal segments' Out.
	In, Out PortType
	// Doc is the one-line catalog description.
	Doc string
	// Params is the declared parameter schema, validated before Build.
	Params []ParamSpec
	// Build constructs the segment. It runs at Runner construction
	// time, so it may open files and allocate stores; errors abort the
	// whole runner.
	Build func(bc BuildCtx) (Segment, error)
}

var registry = map[string]Spec{}

// Register adds a segment kind; duplicate kinds panic (registration is
// an init-time programming act, not a runtime condition).
func Register(s Spec) {
	if s.Kind == "" || s.Build == nil {
		panic("pipeline: Register needs a kind and a build func")
	}
	if _, dup := registry[s.Kind]; dup {
		panic("pipeline: duplicate segment kind " + s.Kind)
	}
	registry[s.Kind] = s
}

// Lookup resolves a segment kind.
func Lookup(kind string) (Spec, bool) {
	s, ok := registry[kind]
	return s, ok
}

// Catalog returns every registered segment, inputs first, then
// filters, analysis and outputs, alphabetical within a role.
func Catalog() []Spec {
	order := map[Role]int{RoleInput: 0, RoleFilter: 1, RoleAnalysis: 2, RoleOutput: 3}
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if order[out[i].Role] != order[out[j].Role] {
			return order[out[i].Role] < order[out[j].Role]
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Params holds a segment's validated parameters. Getters return the
// spec's default (or the zero value) for absent params, so Build
// functions read them unconditionally.
type Params struct {
	spec   []ParamSpec
	values map[string]any
}

func (p Params) get(name string) (any, bool) {
	if v, ok := p.values[name]; ok {
		return v, true
	}
	for _, ps := range p.spec {
		if ps.Name == name && ps.Default != nil {
			return ps.Default, true
		}
	}
	return nil, false
}

// Str returns a string param.
func (p Params) Str(name string) string {
	if v, ok := p.get(name); ok {
		return v.(string)
	}
	return ""
}

// Int returns an int param.
func (p Params) Int(name string) int {
	if v, ok := p.get(name); ok {
		switch v := v.(type) {
		case int:
			return v
		case float64:
			return int(v)
		}
	}
	return 0
}

// Float returns a float param.
func (p Params) Float(name string) float64 {
	if v, ok := p.get(name); ok {
		switch v := v.(type) {
		case float64:
			return v
		case int:
			return float64(v)
		}
	}
	return 0
}

// Bool returns a bool param.
func (p Params) Bool(name string) bool {
	if v, ok := p.get(name); ok {
		return v.(bool)
	}
	return false
}

// Dur returns a duration param.
func (p Params) Dur(name string) time.Duration {
	if v, ok := p.get(name); ok {
		return v.(time.Duration)
	}
	return 0
}

// Strs returns a string-list param.
func (p Params) Strs(name string) []string {
	if v, ok := p.get(name); ok {
		return v.([]string)
	}
	return nil
}

// IntsList returns an int-list param.
func (p Params) IntsList(name string) []int {
	if v, ok := p.get(name); ok {
		return v.([]int)
	}
	return nil
}

// parseParams validates raw JSON params against a spec: unknown keys,
// missing required params and type mismatches are errors.
func parseParams(spec []ParamSpec, raw json.RawMessage) (Params, error) {
	byName := make(map[string]ParamSpec, len(spec))
	for _, ps := range spec {
		byName[ps.Name] = ps
	}
	values := make(map[string]any)
	if len(raw) > 0 {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			return Params{}, fmt.Errorf("params must be an object: %w", err)
		}
		for key, rv := range m {
			ps, ok := byName[key]
			if !ok {
				return Params{}, fmt.Errorf("unknown param %q (valid: %s)", key, paramNames(spec))
			}
			v, err := parseParamValue(ps, rv)
			if err != nil {
				return Params{}, fmt.Errorf("param %q: %w", key, err)
			}
			values[key] = v
		}
	}
	for _, ps := range spec {
		if ps.Required {
			if _, ok := values[ps.Name]; !ok {
				return Params{}, fmt.Errorf("missing required param %q (%s)", ps.Name, ps.Type)
			}
		}
	}
	return Params{spec: spec, values: values}, nil
}

func parseParamValue(ps ParamSpec, raw json.RawMessage) (any, error) {
	switch ps.Type {
	case ParamString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("want string, got %s", raw)
		}
		return s, nil
	case ParamInt:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("want integer, got %s", raw)
		}
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("want integer, got %s", raw)
		}
		return int(f), nil
	case ParamFloat:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("want number, got %s", raw)
		}
		return f, nil
	case ParamBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("want bool, got %s", raw)
		}
		return b, nil
	case ParamDuration:
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		switch v := v.(type) {
		case string:
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, err
			}
			return d, nil
		case float64:
			return time.Duration(v), nil
		}
		return nil, fmt.Errorf("want duration string or nanoseconds, got %s", raw)
	case ParamStrings:
		var ss []string
		if err := json.Unmarshal(raw, &ss); err != nil {
			return nil, fmt.Errorf("want array of strings, got %s", raw)
		}
		return ss, nil
	case ParamInts:
		var fs []float64
		if err := json.Unmarshal(raw, &fs); err != nil {
			return nil, fmt.Errorf("want array of integers, got %s", raw)
		}
		out := make([]int, len(fs))
		for i, f := range fs {
			if f != math.Trunc(f) {
				return nil, fmt.Errorf("want array of integers, got %s", raw)
			}
			out[i] = int(f)
		}
		return out, nil
	}
	return nil, fmt.Errorf("unhandled param type %q", ps.Type)
}

func paramNames(spec []ParamSpec) string {
	if len(spec) == 0 {
		return "none"
	}
	out := ""
	for i, ps := range spec {
		if i > 0 {
			out += ", "
		}
		out += ps.Name
	}
	return out
}
