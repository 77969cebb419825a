package jsonw

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
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
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 1e-7, 9.99e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
	5e-324, 2.2250738585072014e-308, 123456.789, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
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
