package serial

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	toks := Tokenize([]byte("  12 -3\t4,\n5  "))
	want := []string{"12", "-3", "4", "5"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens", len(toks))
	}
	for i, w := range want {
		if string(toks[i]) != w {
			t.Fatalf("tok %d = %q, want %q", i, toks[i], w)
		}
	}
	if len(Tokenize(nil)) != 0 || len(Tokenize([]byte("  \n\t"))) != 0 {
		t.Fatal("whitespace-only input must produce no tokens")
	}
}

func TestIntsRoundTripProperty(t *testing.T) {
	f := func(vals []int32) bool {
		asInt64 := make([]int64, len(vals))
		for i, v := range vals {
			asInt64[i] = int64(v)
		}
		text := EncodeIntsText(asInt64, 4)
		out, err := ParseTokens(text, FieldInt32)
		if err != nil {
			return false
		}
		back := DecodeI32(out)
		if len(back) != len(vals) {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInt64RoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		text := EncodeIntsText(vals, 8)
		out, err := ParseTokens(text, FieldInt64)
		if err != nil {
			return false
		}
		back := DecodeI64(out)
		if len(back) != len(vals) {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFloatsRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0.5
			}
		}
		text := EncodeFloatsText(vals, 4)
		out, err := ParseTokens(text, FieldFloat64)
		if err != nil {
			return false
		}
		back := DecodeF64(out)
		if len(back) != len(vals) {
			return false
		}
		for i := range vals {
			// Shortest-round-trip text is exact.
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecordParser(t *testing.T) {
	text := []byte("1 2 0.5\n3 4 -1.25\n")
	p := RecordParser{Fields: []FieldKind{FieldInt32, FieldInt32, FieldFloat64}}
	out := p.Parse(text, true)
	wantLen := 2 * (4 + 4 + 8)
	if len(out) != wantLen {
		t.Fatalf("out = %d bytes, want %d", len(out), wantLen)
	}
	if got := DecodeI32(out[:4])[0]; got != 1 {
		t.Fatalf("first field = %d", got)
	}
	if got := DecodeF64(out[8:16])[0]; got != 0.5 {
		t.Fatalf("float field = %v", got)
	}
}

func TestRecordParserRejectsPartialRecords(t *testing.T) {
	if _, err := ParseRecords([]byte("1 2\n"), []FieldKind{FieldInt32, FieldInt32, FieldFloat64}); err == nil {
		t.Fatal("partial record must be rejected")
	}
	if _, err := ParseRecords(nil, nil); err == nil {
		t.Fatal("empty field list must be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseTokens([]byte("12 abc"), FieldInt32); err == nil {
		t.Fatal("bad integer token must error")
	}
	if _, err := ParseTokens([]byte("1.5.5"), FieldFloat64); err == nil {
		t.Fatal("bad float token must error")
	}
}

func TestTokenParserChunkingEquivalence(t *testing.T) {
	// Parsing in record-aligned chunks must equal parsing whole.
	vals := []int64{100, -200, 3000, -40000, 5}
	text := EncodeIntsText(vals, 2) // newline every 2 values
	p := TokenParser{Kind: FieldInt32}
	whole := p.Parse(text, true)
	var chunks []byte
	lines := bytes.SplitAfter(text, []byte("\n"))
	for i, line := range lines {
		chunks = append(chunks, p.Parse(line, i == len(lines)-1)...)
	}
	if !bytes.Equal(whole, chunks) {
		t.Fatal("chunked parse differs from whole parse")
	}
}

func TestFieldWidths(t *testing.T) {
	if FieldInt32.Width() != 4 || FieldFloat32.Width() != 4 ||
		FieldInt64.Width() != 8 || FieldFloat64.Width() != 8 {
		t.Fatal("field widths wrong")
	}
	if FieldInt32.IsFloat() || !FieldFloat64.IsFloat() {
		t.Fatal("float classification wrong")
	}
}

func TestFloatTextFraction(t *testing.T) {
	fields := []FieldKind{FieldInt32, FieldInt32, FieldFloat64}
	frac := FloatTextFraction(fields, 8, 10)
	want := 11.0 / (9 + 9 + 11)
	if math.Abs(frac-want) > 1e-9 {
		t.Fatalf("frac = %v, want %v", frac, want)
	}
	if FloatTextFraction(nil, 1, 1) != 0 {
		t.Fatal("empty fields must be 0")
	}
}

func TestEncodeDecodeBinaryHelpers(t *testing.T) {
	i32 := []int32{1, -2, 1 << 30}
	if got := DecodeI32(EncodeI32(i32)); len(got) != 3 || got[2] != 1<<30 {
		t.Fatalf("i32 round trip = %v", got)
	}
	f64 := []float64{0.25, -3.5}
	if got := DecodeF64(EncodeF64(f64)); got[1] != -3.5 {
		t.Fatalf("f64 round trip = %v", got)
	}
	f32text, _ := ParseTokens([]byte("1.5"), FieldFloat32)
	if got := DecodeF32(f32text); got[0] != 1.5 {
		t.Fatalf("f32 = %v", got)
	}
}

func TestAppendFloatTextPrec(t *testing.T) {
	out := AppendFloatTextPrec(nil, 0.8414709848078965, 6, '\n')
	if string(out) != "0.841471\n" {
		t.Fatalf("got %q", out)
	}
}

// benchInts is 8 KiB of Zipf-distributed 8-digit word ids, 16 to a line:
// the shape and size of one grep chunk.
func benchInts() []byte {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 199999)
	var b []byte
	for i := 1; len(b) < 8<<10; i++ {
		b = AppendIntText(b, 10_000_000+int64(zipf.Uint64()), " \n"[i%16/15])
	}
	return b
}

// benchOut keeps the benchmarked parser output live.
var benchOut []byte

func BenchmarkAppendTokens(b *testing.B) {
	chunk := benchInts()
	dst, _ := AppendTokens(nil, chunk, FieldInt64)
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = AppendTokens(dst[:0], chunk, FieldInt64)
	}
	benchOut = dst
}

func BenchmarkParseTokens(b *testing.B) {
	chunk := benchInts()
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOut, _ = ParseTokens(chunk, FieldInt64)
	}
}

// TestAppendParsersDoNotAllocate: into a destination that already has
// room, the append parsers allocate nothing, for integer and float tokens.
func TestAppendParsersDoNotAllocate(t *testing.T) {
	ints := benchInts()
	recs := []byte("1 -2 0.5\n30 40 -1.25e3\n123456789 7 3\n")
	fields := []FieldKind{FieldInt32, FieldInt64, FieldFloat64}
	for _, c := range []struct {
		name  string
		parse func(dst []byte) ([]byte, error)
	}{
		{"AppendTokens/int32", func(dst []byte) ([]byte, error) { return AppendTokens(dst, ints, FieldInt32) }},
		{"AppendTokens/float32", func(dst []byte) ([]byte, error) { return AppendTokens(dst, recs, FieldFloat32) }},
		{"AppendRecords", func(dst []byte) ([]byte, error) { return AppendRecords(dst, recs, fields) }},
	} {
		dst, err := c.parse(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { dst, _ = c.parse(dst[:0]) }); n != 0 {
			t.Errorf("%s: %v allocations per run into a warmed dst, want 0", c.name, n)
		}
	}
}
