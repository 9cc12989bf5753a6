package stream

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"uncharted/internal/drift"
	"uncharted/internal/obs"
)

// checkProfileJSON compares the profile's appender with the generic
// renderer: the same bytes after whatever dst already held, in one
// Write from WriteJSON; or, where the generic renderer refuses the
// document, an error from both, dst as it was and no Write at all. It
// reports whether the document was refused.
func checkProfileJSON(t *testing.T, name string, p *Profile) (refused bool) {
	t.Helper()
	var want bytes.Buffer
	werr := obs.WriteIndentedJSON(&want, p)
	prefix := []byte("held")
	got, gerr := p.AppendJSON(prefix)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Errorf("%s: appender error %v, encoder error %v", name, gerr, werr)
	case gerr != nil && string(got) != "held":
		t.Errorf("%s: failed append left %q, want dst unchanged", name, got)
	case gerr == nil && !bytes.Equal(got[len(prefix):], want.Bytes()):
		t.Errorf("%s: appended\n%s\nwant\n%s", name, got[len(prefix):], want.Bytes())
	}
	var w countingWriter
	err := p.WriteJSON(&w)
	if (err == nil) != (werr == nil) || !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Errorf("%s: WriteJSON error %v and %d bytes, want error %v and the encoder's %d", name, err, w.Len(), werr, want.Len())
	}
	if wantWrites := min(1, want.Len()); w.writes != wantWrites {
		t.Errorf("%s: WriteJSON made %d writes, want %d", name, w.writes, wantWrites)
	}
	return werr != nil
}

// countingWriter records how a document reached the writer.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestProfileJSONMatchesEncoder: the profile's appender writes byte for
// byte what obs.WriteIndentedJSON writes — on the y1 profile at 1 and 4
// shards and the mixed-protocol profile (dialect token maps, streams,
// compliance dialects), the zero profile, nil and empty cluster sizes,
// strings encoding/json escapes, times in a zone or with a monotonic
// reading, and profiles filled field by field from random bytes — and
// refuses, writing nothing, exactly the documents it refuses.
func TestProfileJSONMatchesEncoder(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden_*.drift"))
	if err != nil || len(paths) != 4 {
		t.Fatalf("stream goldens: %v %v", paths, err)
	}
	var mixed *Profile
	for i, path := range paths {
		dp, err := drift.LoadProfile(path)
		if err != nil {
			t.Fatal(err)
		}
		p := BuildProfile(dp.Partial, i+1, 3, 1202)
		p.Workers = 4
		checkProfileJSON(t, filepath.Base(path), p)
		if len(p.Dialects) > 0 && len(p.Streams) > 0 && len(p.Compliance.Dialects) > 0 {
			mixed = p
		}
	}
	if mixed == nil {
		t.Fatal("no golden profile has dialects, streams and compliance dialects")
	}
	tokens := 0
	for _, d := range mixed.Dialects {
		tokens += len(d.Tokens)
	}
	if tokens == 0 {
		t.Fatal("mixed golden profile has no dialect tokens")
	}

	checkProfileJSON(t, "zero", &Profile{})
	checkProfileJSON(t, "nil sizes", &Profile{Clusters: &ClusterProfile{K: 2}})
	checkProfileJSON(t, "empty sizes", &Profile{Clusters: &ClusterProfile{K: 2, Sizes: []int{}, Outliers: []string{}}})

	odd := []string{"", "<a href=\"x\">&amp;</a>", "tab\tnl\ncr\r\b\f\x00\x1f\x7f", "bad \xff\xfe utf8 \xc3", "line\u2028para\u2029", "ünïcødé ✓ 𝄞", `back\slash`}
	p := &Profile{
		DroppedBatches: 3, DroppedPackets: -4, FlowsEvicted: 1,
		Compliance: ComplianceProfile{NonCompliant: odd, Dialects: map[string]string{}},
		Markov:     MarkovProfile{Point11: odd, Square: []string{}, Ellipse: nil},
		Dialects:   []DialectProfile{{Proto: odd[1], Tokens: map[string]int{}}},
	}
	for i, s := range odd {
		p.Compliance.Dialects[s] = odd[len(odd)-1-i]
		p.Dialects[0].Tokens[s] = i - 3
		p.Markov.Connections = append(p.Markov.Connections, ConnProfile{Server: s, Outstation: s + s, Cluster: s})
		p.Physical = append(p.Physical, PhysicalPoint{Station: s, IOA: math.MaxUint32, Min: -0.0, Max: 1e21, Mean: 1e-7, NormalizedVariance: 5e-324, Command: i%2 == 0})
		p.Streams = append(p.Streams, StreamProfile{Proto: s, Conn: s, Unit: s, Detail: s, ObservedRate: float64(i) / 3, Compliant: i%2 == 1})
	}
	checkProfileJSON(t, "strings", p)

	base := time.Date(2019, 8, 1, 12, 30, 45, 123456789, time.UTC)
	for _, tm := range []time.Time{
		{},
		base,
		base.In(time.FixedZone("UTC+5:30", 5*3600+30*60)),
		base.In(time.FixedZone("west", -11*3600-59*60-59)),
		time.Now(), // carries a monotonic reading
		time.Now().In(time.FixedZone("UTC+1", 3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		checkProfileJSON(t, "time "+tm.String(), &Profile{First: tm, Last: tm.Add(time.Second)})
	}

	// What encoding/json refuses.
	for name, bad := range map[string]*Profile{
		"NaN mean":            {Physical: []PhysicalPoint{{Station: "O1", Mean: math.NaN()}}},
		"+Inf subsec":         {Flows: FlowProfile{SubSecProportion: math.Inf(1)}},
		"-Inf rate":           {Streams: []StreamProfile{{ObservedRate: math.Inf(-1)}}},
		"NaN silhouette":      {Clusters: &ClusterProfile{Silhouette: math.NaN()}},
		"year 10000":          {Last: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year -1":             {First: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone offset of 24 h": {First: base.In(time.FixedZone("far", 24*3600))},
	} {
		if !checkProfileJSON(t, name, bad) {
			t.Errorf("%s: encoded, want refused", name)
		}
	}

	rng := rand.New(rand.NewSource(40))
	refused := 0
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.Intn(4096))
		rng.Read(data)
		var p Profile
		if err := fillFromBytes(reflect.ValueOf(&p).Elem(), &data); err != nil {
			t.Fatal(err)
		}
		if checkProfileJSON(t, "random", &p) {
			refused++
		}
	}
	if refused == 0 || refused == 300 {
		t.Errorf("%d of 300 random profiles refused: both outcomes must be covered", refused)
	}
}

// FuzzProfileJSONMatchesEncoder fills every field of a Profile — found
// through reflect, so a field added later is covered without editing
// this test — from the fuzz input, and requires the appender and the
// generic renderer to write the same bytes or both to refuse the
// document and write nothing.
func FuzzProfileJSONMatchesEncoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{3}, 64))
	f.Add(bytes.Repeat([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, 40)) // NaN bits
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 2048)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Profile
		if err := fillFromBytes(reflect.ValueOf(&p).Elem(), &data); err != nil {
			t.Fatal(err)
		}
		checkProfileJSON(t, "fuzz", &p)
	})
}

var timeType = reflect.TypeOf(time.Time{})

// fillFromBytes sets v and everything under it from the front of
// *data, consuming what it reads; an exhausted input reads as zeros.
// Lists and maps get 0-3 entries or stay nil; floats take raw bits
// (NaN and the infinities included); strings take raw bytes (invalid
// UTF-8 included); times span every year and zone offset encoding/json
// accepts and some it refuses. A kind it cannot fill is an error, so a
// field of a new kind fails the test instead of going unchecked.
func fillFromBytes(v reflect.Value, data *[]byte) error {
	next := func(n int) []byte {
		out := make([]byte, n)
		*data = (*data)[copy(out, *data):]
		return out
	}
	u64 := func() uint64 { return binary.LittleEndian.Uint64(next(8)) }
	sel := func() int { return int(next(1)[0]) }

	if v.Type() == timeType {
		tm := time.Unix(0, int64(u64()))
		switch sel() % 5 {
		case 0:
			tm = tm.UTC()
		case 1:
			tm = tm.In(time.FixedZone("z", int(int32(u64()%(2*26*3600)))-26*3600))
		case 2:
			tm = time.Date(int(int16(u64())), 1, 1, 0, 0, 0, int(u64()%1e9), time.UTC)
		case 3:
			tm = time.Now().Add(time.Duration(u64() % (1 << 40)))
		}
		v.Set(reflect.ValueOf(tm))
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(sel()&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(u64()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(u64())
	case reflect.Float64:
		f := math.Float64frombits(u64())
		if s := sel(); s%4 == 0 {
			f = float64(int64(f)) / 8 // an ordinary reading, now and then
		}
		v.SetFloat(f)
	case reflect.String:
		v.SetString(string(next(sel() % 12)))
	case reflect.Pointer:
		if sel()%2 == 0 {
			return nil
		}
		v.Set(reflect.New(v.Type().Elem()))
		return fillFromBytes(v.Elem(), data)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := fillFromBytes(v.Field(i), data); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := fillFromBytes(v.Index(i), data); err != nil {
				return err
			}
		}
	case reflect.Slice:
		n := sel() % 5
		if n == 0 {
			return nil
		}
		v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
		for i := 0; i < n-1; i++ {
			if err := fillFromBytes(v.Index(i), data); err != nil {
				return err
			}
		}
	case reflect.Map:
		n := sel() % 5
		if n == 0 {
			return nil
		}
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < n-1; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			if err := fillFromBytes(k, data); err != nil {
				return err
			}
			if err := fillFromBytes(e, data); err != nil {
				return err
			}
			v.SetMapIndex(k, e)
		}
	default:
		return &reflect.ValueError{Method: "fillFromBytes", Kind: v.Kind()}
	}
	return nil
}

// BenchmarkProfileJSON renders the 4-shard y1 golden's profile with the
// appender and with the generic renderer it matches.
func BenchmarkProfileJSON(b *testing.B) {
	dp, err := drift.LoadProfile(filepath.Join("testdata", "golden_iec104_4shard.drift"))
	if err != nil {
		b.Fatal(err)
	}
	p := BuildProfile(dp.Partial, 1, 3, 1202)
	for _, bc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"append", p.WriteJSON},
		{"encoding_json", func(w io.Writer) error { return obs.WriteIndentedJSON(w, p) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
