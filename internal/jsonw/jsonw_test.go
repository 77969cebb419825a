package jsonw

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// write walks a decoded-JSON-shaped value (maps sorted by key, as
// encoding/json emits them) through a Writer.
func write(w *Writer, v any) {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.BeginObject()
		for _, k := range keys {
			w.Key(k)
			write(w, v[k])
		}
		w.EndObject()
	case []any:
		w.BeginArray()
		for _, e := range v {
			write(w, e)
		}
		w.EndArray()
	case string:
		w.String(v)
	case int64:
		w.Int(v)
	case uint64:
		w.Uint(v)
	case float64:
		w.Float(v)
	case bool:
		w.Bool(v)
	default:
		panic("unsupported test value")
	}
}

// both renders v with the Writer and with json.Encoder.
func both(t *testing.T, v any) (got, want string, gotErr, wantErr error) {
	t.Helper()
	var a, b bytes.Buffer
	w := New(&a)
	write(w, v)
	gotErr = w.Close()
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	wantErr = enc.Encode(v)
	return a.String(), b.String(), gotErr, wantErr
}

var awkwardStrings = []string{
	"", "plain", "a<b", "c>d", "x&y", "q\"uote", `back\slash`, "tab\there", "nl\n", "\x00\x1f",
	"pipe|key", "ünïcödé", "  ", "bad\xffutf8", "\x7f", "emoji 🙂",
	"4.00KiB -> w<0>&\"q\"\\", "&&<<>>", "<-", "x<y\n", "a&ü",
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 1e-7, 9.99e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
	5e-324, 2.2250738585072014e-308, 123456.789, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
	1 << 53, 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, 1 << 60, 1e15, 123456789012345, -42, 1e20 + 1<<17,
}

func TestMatchesEncodingJSON(t *testing.T) {
	cases := []any{
		map[string]any{},
		[]any{},
		map[string]any{"a": []any{}, "b": map[string]any{}},
		[]any{int64(1), int64(-2), uint64(math.MaxUint64), true, false, "s"},
		map[string]any{"outer": map[string]any{"inner": []any{map[string]any{"k": int64(3)}, []any{}}}},
		int64(7),
		"top-level string",
	}
	for _, s := range awkwardStrings {
		cases = append(cases, map[string]any{s: s})
	}
	for _, f := range awkwardFloats {
		cases = append(cases, []any{f})
	}
	for i, v := range cases {
		got, want, gerr, werr := both(t, v)
		if gerr != nil || werr != nil {
			t.Fatalf("case %d: errors %v / %v", i, gerr, werr)
		}
		if got != want {
			t.Errorf("case %d: got\n%q\nwant\n%q", i, got, want)
		}
	}
}

// randomValue builds a random tree of every value kind, nested a few
// levels deep, with the awkward strings and floats as leaves.
func randomValue(rng *rand.Rand, depth int) any {
	k := rng.Intn(8)
	if depth > 3 && k >= 6 {
		k = rng.Intn(6)
	}
	switch k {
	case 0:
		return awkwardStrings[rng.Intn(len(awkwardStrings))]
	case 1:
		return rng.Int63() - rng.Int63()
	case 2:
		return rng.Uint64()
	case 3:
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	case 4:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 5:
		return rng.Intn(2) == 0
	case 6:
		m := map[string]any{}
		for n := rng.Intn(5); n > 0; n-- {
			m[awkwardStrings[rng.Intn(len(awkwardStrings))]] = randomValue(rng, depth+1)
		}
		return m
	default:
		a := []any{}
		for n := rng.Intn(5); n > 0; n-- {
			a = append(a, randomValue(rng, depth+1))
		}
		return a
	}
}

func TestRandomTreesMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20160618))
	for i := 0; i < 2000; i++ {
		v := randomValue(rng, 0)
		got, want, gerr, werr := both(t, v)
		if gerr != nil || werr != nil {
			t.Fatalf("tree %d: errors %v / %v", i, gerr, werr)
		}
		if got != want {
			t.Fatalf("tree %d: got\n%s\nwant\n%s", i, got, want)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	var v any = int64(1)
	for i := 0; i < 70; i++ {
		v = []any{v}
	}
	if got, want, _, _ := both(t, v); got != want {
		t.Fatalf("70-deep array differs:\n%q\nwant\n%q", got, want)
	}
}

func TestUnsupportedFloat(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, _, gerr, werr := both(t, map[string]any{"g": f})
		var ue *json.UnsupportedValueError
		if !errors.As(gerr, &ue) {
			t.Fatalf("%v: got error %v, want *json.UnsupportedValueError", f, gerr)
		}
		if werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%v: error %q, encoding/json says %v", f, gerr, werr)
		}
	}
}

type failWriter struct{}

var errSink = errors.New("sink failed")

func (failWriter) Write([]byte) (int, error) { return 0, errSink }

func TestWriteErrorSurfacesFromClose(t *testing.T) {
	w := New(failWriter{})
	w.BeginArray()
	w.String("x")
	w.EndArray()
	if err := w.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close = %v, want %v", err, errSink)
	}
}

// nested renders a document nesting depth-1 arrays around an object,
// whose keys sit depth deep and are written by key.
func nested(depth int, key func(w *Writer, name string)) (string, error) {
	var b bytes.Buffer
	w := New(&b)
	for i := 1; i < depth; i++ {
		w.BeginArray()
	}
	w.BeginObject()
	for i, name := range awkwardStrings {
		key(w, name)
		w.Int(int64(i))
	}
	w.EndObject()
	for i := 1; i < depth; i++ {
		w.EndArray()
	}
	err := w.Close()
	return b.String(), err
}

func TestFieldMatchesKey(t *testing.T) {
	for depth := 1; depth <= 70; depth++ {
		want, err := nested(depth, (*Writer).Key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nested(depth, func(w *Writer, name string) { w.Field(NewField(name)) })
		if err != nil || got != want {
			t.Fatalf("depth %d: error %v, got\n%q\nwant\n%q", depth, err, got, want)
		}
	}
}

func TestNaNAfterFieldFailsClose(t *testing.T) {
	var b bytes.Buffer
	w := New(&b)
	w.BeginObject()
	w.Field(NewField("g"))
	w.Float(math.NaN())
	w.Field(NewField("h"))
	w.Int(1)
	w.EndObject()
	var ue *json.UnsupportedValueError
	if err := w.Close(); !errors.As(err, &ue) {
		t.Fatalf("Close = %v, want *json.UnsupportedValueError", err)
	}
}

// writeSizes records the size of every Write it receives.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (s *writeSizes) Write(p []byte) (int, error) {
	s.sizes = append(s.sizes, len(p))
	return s.Buffer.Write(p)
}

// TestStreamsInPieces: a document many times the buffer reaches the
// destination in buffer-sized writes, never whole, and still matches
// encoding/json.
func TestStreamsInPieces(t *testing.T) {
	v := make([]any, 100_000)
	for i := range v {
		v[i] = map[string]any{"k": int64(i), "s": awkwardStrings[i%len(awkwardStrings)]}
	}
	var dst writeSizes
	w := New(&dst)
	write(w, v)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if dst.String() != want.String() {
		t.Fatal("streamed document differs from encoding/json")
	}
	if len(dst.sizes) < want.Len()/flushAt {
		t.Fatalf("%d writes for %d bytes", len(dst.sizes), want.Len())
	}
	for _, n := range dst.sizes {
		if n > flushAt+1024 {
			t.Fatalf("a write of %d bytes, past the %d-byte buffer", n, flushAt)
		}
	}
}

// TestFloatShortcuts holds Float's millionths shortcut to encoding/json
// on the values it takes, on whole numbers and on their neighbours,
// which must not take it.
func TestFloatShortcuts(t *testing.T) {
	rng := rand.New(rand.NewSource(20160618))
	var vals []any
	for i := 0; i < 20000; i++ {
		k := rng.Int63n(int64(math.Pow(10, float64(1+rng.Intn(16)))))
		if rng.Intn(2) == 0 {
			k = -k
		}
		v := float64(k) / 1e6
		vals = append(vals, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)), float64(k), float64(k)/1e7, v*3)
	}
	for _, k := range []int64{1, 999_999, 1_000_000, 1e15 - 1, 1e15, 1e15 + 1, 1<<53 - 1, 1 << 53} {
		vals = append(vals, float64(k)/1e6, -float64(k)/1e6, float64(k))
	}
	got, want, gerr, werr := both(t, vals)
	if gerr != nil || werr != nil {
		t.Fatalf("errors %v / %v", gerr, werr)
	}
	if got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("line %d: got %s, want %s", i, g[i], w[i])
			}
		}
	}
}
