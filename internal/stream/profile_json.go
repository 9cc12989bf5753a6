package stream

import (
	"slices"
	"strconv"
	"time"

	"uncharted/internal/obs"
)

// AppendJSON appends the profile's JSON document to dst — byte for byte
// what obs.WriteIndentedJSON writes for it: two-space indent, trailing
// newline, each field named and omitted as its tag says, a nil list
// that is not omitempty as null, map keys sorted, strings escaped as
// encoding/json escapes them — without reflection or a second
// indenting pass: the profile is the document every /profile and /fleet
// miss renders. A NaN or infinite float, or a time encoding/json
// refuses, returns its error and dst as it was.
func (p *Profile) AppendJSON(dst []byte) ([]byte, error) {
	d := jsonDoc{b: dst}
	d.open('{')
	d.intField("seq", int64(p.Seq))
	d.intField("workers", int64(p.Workers))
	d.timeField("first", p.First)
	d.timeField("last", p.Last)
	d.intField("packets", int64(p.Packets))
	d.intField("iec_packets", int64(p.IECPackets))
	d.intField("parse_errors", int64(p.ParseErrors))
	d.intField("seq_anomalies", int64(p.SeqAnomalies))
	d.intField("total_asdus", int64(p.TotalASDUs))
	d.omitInt("flows_evicted", int64(p.FlowsEvicted))
	d.omitInt("dropped_batches", p.DroppedBatches)
	d.omitInt("dropped_packets", p.DroppedPackets)

	d.key("flows")
	d.open('{')
	d.intField("total", int64(p.Flows.Total))
	d.intField("short_lived", int64(p.Flows.ShortLived))
	d.intField("long_lived", int64(p.Flows.LongLived))
	d.intField("short_lived_subsec", int64(p.Flows.ShortLivedSubSec))
	d.floatField("subsec_proportion", p.Flows.SubSecProportion)
	d.close('}')

	d.key("compliance")
	d.open('{')
	d.intField("stations", int64(p.Compliance.Stations))
	d.omitStrings("non_compliant", p.Compliance.NonCompliant)
	if len(p.Compliance.Dialects) > 0 {
		d.key("dialects")
		d.open('{')
		for _, k := range sortedKeys(p.Compliance.Dialects) {
			d.mapKey(k)
			d.string(p.Compliance.Dialects[k])
		}
		d.close('}')
	}
	d.close('}')

	if len(p.Types) > 0 {
		d.key("types")
		d.open('[')
		for i := range p.Types {
			t := &p.Types[i]
			d.elem()
			d.open('{')
			d.intField("Type", int64(t.Type))
			d.intField("Count", int64(t.Count))
			d.floatField("Percent", t.Percent)
			d.close('}')
		}
		d.close(']')
	}

	d.key("markov")
	d.open('{')
	if cs := p.Markov.Connections; len(cs) > 0 {
		d.key("connections")
		d.open('[')
		for i := range cs {
			c := &cs[i]
			d.elem()
			d.open('{')
			d.stringField("server", c.Server)
			d.stringField("outstation", c.Outstation)
			d.intField("nodes", int64(c.Nodes))
			d.intField("edges", int64(c.Edges))
			d.intField("tokens", int64(c.Tokens))
			d.stringField("cluster", c.Cluster)
			d.close('}')
		}
		d.close(']')
	}
	d.omitStrings("point11", p.Markov.Point11)
	d.omitStrings("square", p.Markov.Square)
	d.omitStrings("ellipse", p.Markov.Ellipse)
	d.key("distribution")
	d.ints(p.Markov.Distribution[:])
	d.close('}')

	if c := p.Clusters; c != nil {
		d.key("clusters")
		d.open('{')
		d.intField("k", int64(c.K))
		d.key("sizes")
		if c.Sizes == nil {
			d.null()
		} else {
			d.ints(c.Sizes)
		}
		d.floatField("silhouette", c.Silhouette)
		d.omitStrings("outliers", c.Outliers)
		d.close('}')
	}

	if len(p.Physical) > 0 {
		d.key("physical")
		d.open('[')
		for i := range p.Physical {
			pt := &p.Physical[i]
			d.elem()
			d.open('{')
			d.stringField("station", pt.Station)
			d.intField("ioa", int64(pt.IOA))
			d.intField("count", int64(pt.Count))
			d.floatField("min", pt.Min)
			d.floatField("max", pt.Max)
			d.floatField("mean", pt.Mean)
			d.floatField("normalized_variance", pt.NormalizedVariance)
			if pt.Command {
				d.boolField("command", true)
			}
			d.close('}')
		}
		d.close(']')
	}

	if len(p.Dialects) > 0 {
		d.key("dialects")
		d.open('[')
		for i := range p.Dialects {
			dp := &p.Dialects[i]
			d.elem()
			d.open('{')
			d.stringField("proto", dp.Proto)
			d.intField("frames", int64(dp.Frames))
			d.omitInt("parse_errors", int64(dp.ParseErrors))
			d.intField("bytes", int64(dp.Bytes))
			if len(dp.Tokens) > 0 {
				d.key("tokens")
				d.open('{')
				for _, k := range sortedKeys(dp.Tokens) {
					d.mapKey(k)
					d.int(int64(dp.Tokens[k]))
				}
				d.close('}')
			}
			d.close('}')
		}
		d.close(']')
	}

	if len(p.Streams) > 0 {
		d.key("streams")
		d.open('[')
		for i := range p.Streams {
			sp := &p.Streams[i]
			d.elem()
			d.open('{')
			d.stringField("proto", sp.Proto)
			d.stringField("conn", sp.Conn)
			d.stringField("unit", sp.Unit)
			if sp.ConfiguredRate != 0 {
				d.floatField("configured_rate", sp.ConfiguredRate)
			}
			if sp.ObservedRate != 0 {
				d.floatField("observed_rate", sp.ObservedRate)
			}
			d.intField("frames", int64(sp.Frames))
			d.omitInt("errors", int64(sp.Errors))
			d.boolField("compliant", sp.Compliant)
			if sp.Detail != "" {
				d.stringField("detail", sp.Detail)
			}
			d.close('}')
		}
		d.close(']')
	}
	d.close('}')
	if d.err != nil {
		return dst, d.err
	}
	return append(d.b, '\n'), nil
}

// jsonDoc appends one document in the layout of a json.Encoder with
// SetIndent("", "  "): each member or element on its own line at its
// depth, and an empty object or array as {} or []. The first float or
// time that cannot be encoded is kept in err; the document is then
// discarded.
type jsonDoc struct {
	b     []byte
	depth int
	// empty is whether the innermost open container has no member yet.
	empty bool
	err   error
}

func (d *jsonDoc) open(c byte) {
	d.b = append(d.b, c)
	d.depth++
	d.empty = true
}

func (d *jsonDoc) close(c byte) {
	d.depth--
	if !d.empty {
		d.newline()
	}
	d.b = append(d.b, c)
	d.empty = false
}

func (d *jsonDoc) newline() {
	d.b = append(d.b, '\n')
	for i := 0; i < d.depth; i++ {
		d.b = append(d.b, ' ', ' ')
	}
}

// elem starts the next element of an array.
func (d *jsonDoc) elem() {
	if !d.empty {
		d.b = append(d.b, ',')
	}
	d.empty = false
	d.newline()
}

// key starts the next member of an object under a name that needs no
// escaping (a struct tag's).
func (d *jsonDoc) key(name string) {
	d.elem()
	d.b = append(d.b, '"')
	d.b = append(d.b, name...)
	d.b = append(d.b, `": `...)
}

// mapKey starts the next member under a map key.
func (d *jsonDoc) mapKey(k string) {
	d.elem()
	d.b = obs.AppendJSONString(d.b, k)
	d.b = append(d.b, ": "...)
}

func (d *jsonDoc) int(n int64)     { d.b = strconv.AppendInt(d.b, n, 10) }
func (d *jsonDoc) string(s string) { d.b = obs.AppendJSONString(d.b, s) }
func (d *jsonDoc) null()           { d.b = append(d.b, "null"...) }
func (d *jsonDoc) float(f float64) { d.b = d.check(obs.AppendJSONFloat(d.b, f)) }

func (d *jsonDoc) intField(name string, n int64)     { d.key(name); d.int(n) }
func (d *jsonDoc) floatField(name string, f float64) { d.key(name); d.float(f) }
func (d *jsonDoc) stringField(name, s string)        { d.key(name); d.string(s) }
func (d *jsonDoc) boolField(name string, v bool) {
	d.key(name)
	d.b = strconv.AppendBool(d.b, v)
}

func (d *jsonDoc) timeField(name string, t time.Time) {
	d.key(name)
	d.b = d.check(obs.AppendJSONTime(d.b, t))
}

// check keeps the first encoding error.
func (d *jsonDoc) check(b []byte, err error) []byte {
	if err != nil && d.err == nil {
		d.err = err
	}
	return b
}

func (d *jsonDoc) ints(ns []int) {
	d.open('[')
	for _, n := range ns {
		d.elem()
		d.int(int64(n))
	}
	d.close(']')
}

// omitInt is an omitempty integer member.
func (d *jsonDoc) omitInt(name string, n int64) {
	if n != 0 {
		d.intField(name, n)
	}
}

// omitStrings is an omitempty string-list member.
func (d *jsonDoc) omitStrings(name string, ss []string) {
	if len(ss) == 0 {
		return
	}
	d.key(name)
	d.open('[')
	for _, s := range ss {
		d.elem()
		d.string(s)
	}
	d.close(']')
}

// sortedKeys is m's keys in the order encoding/json writes them.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
