package morphc

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"morpheus/internal/mvm"
)

// runApp compiles src, feeds it input, and returns the VM after halt.
func runApp(t *testing.T, src, input string, args ...int64) *mvm.VM {
	t.Helper()
	prog, err := Compile(src, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	vm.SetArgs(args)
	if err := vm.Feed([]byte(input), true); err != nil {
		t.Fatalf("feed: %v", err)
	}
	for {
		switch st := vm.Run(); st {
		case mvm.StateHalted:
			return vm
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			continue // output stays buffered; tests drain at the end
		case mvm.StateTrapped:
			t.Fatalf("trap: %v", vm.TrapErr())
		default:
			t.Fatalf("unexpected state %v", st)
		}
	}
}

// collectOutput drains the VM's full output including any pre-halt flushes.
func runAppOutput(t *testing.T, src, input string, args ...int64) ([]byte, int64) {
	t.Helper()
	prog, err := Compile(src, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	vm.SetArgs(args)
	if err := vm.Feed([]byte(input), true); err != nil {
		t.Fatalf("feed: %v", err)
	}
	var out []byte
	for {
		switch st := vm.Run(); st {
		case mvm.StateHalted:
			out = append(out, vm.DrainOutput()...)
			return out, vm.ReturnValue()
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			out = append(out, vm.DrainOutput()...)
		case mvm.StateTrapped:
			t.Fatalf("trap: %v", vm.TrapErr())
		default:
			t.Fatalf("unexpected state %v", st)
		}
	}
}

// deserializeIntsSrc is the paper's Figure 7 StorageApp, transliterated to
// MorphC: scan ASCII integers, emit them as a binary int32 array.
const deserializeIntsSrc = `
StorageApp int inputapplet(ms_stream s) {
	int v;
	int count = 0;
	while (ms_scanf(s, "%d", &v) == 1) {
		ms_emit_i32(v);
		count = count + 1;
	}
	ms_memcpy();
	return count;
}
`

func TestDeserializeInts(t *testing.T) {
	out, ret := runAppOutput(t, deserializeIntsSrc, "10 -3 42\n7 999999 0\n")
	want := []int32{10, -3, 42, 7, 999999, 0}
	if ret != int64(len(want)) {
		t.Fatalf("return value = %d, want %d", ret, len(want))
	}
	if len(out) != 4*len(want) {
		t.Fatalf("output %d bytes, want %d", len(out), 4*len(want))
	}
	for i, w := range want {
		got := int32(binary.LittleEndian.Uint32(out[4*i:]))
		if got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestDeserializeFloats(t *testing.T) {
	src := `
StorageApp int fapp(ms_stream s) {
	float v;
	int n = 0;
	while (ms_scanf(s, "%f", &v) == 1) {
		ms_emit_f64(v);
		n++;
	}
	return n;
}
`
	out, ret := runAppOutput(t, src, "1.5 -2.25 3e2 0.125")
	want := []float64{1.5, -2.25, 300, 0.125}
	if ret != int64(len(want)) {
		t.Fatalf("ret = %d, want %d", ret, len(want))
	}
	for i, w := range want {
		got := math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
		if got != w {
			t.Errorf("out[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	// Sum of squares of 1..n, plus exercising for, if/else, compound ops.
	src := `
int square(int x) { return x * x; }

StorageApp int sumsq(ms_stream s, int n) {
	int total = 0;
	for (int i = 1; i <= n; i++) {
		if (i % 2 == 0) {
			total += square(i);
		} else {
			total = total + square(i);
		}
	}
	return total;
}
`
	vm := runApp(t, src, "", 10)
	want := int64(0)
	for i := int64(1); i <= 10; i++ {
		want += i * i
	}
	if vm.ReturnValue() != want {
		t.Fatalf("sumsq(10) = %d, want %d", vm.ReturnValue(), want)
	}
}

func TestArraysAndWhile(t *testing.T) {
	// Bucket-count digits of the input stream.
	src := `
StorageApp int digits(ms_stream s) {
	int counts[10];
	int i = 0;
	while (i < 10) { counts[i] = 0; i++; }
	int c = ms_read_byte(s);
	while (c >= 0) {
		if (c >= '0' && c <= '9') {
			counts[c - '0'] += 1;
		}
		c = ms_read_byte(s);
	}
	int total = 0;
	for (int j = 0; j < 10; j++) {
		ms_emit_i32(counts[j]);
		total += counts[j];
	}
	return total;
}
`
	out, ret := runAppOutput(t, src, "a1b22c333x9")
	if ret != 7 {
		t.Fatalf("total digits = %d, want 7", ret)
	}
	wantCounts := []int32{0, 1, 2, 3, 0, 0, 0, 0, 0, 1}
	for i, w := range wantCounts {
		got := int32(binary.LittleEndian.Uint32(out[4*i:]))
		if got != w {
			t.Errorf("counts[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestGlobalsAndFunctions(t *testing.T) {
	src := `
int acc;

void bump(int v) { acc = acc + v; }

StorageApp int run(ms_stream s) {
	acc = 0;
	int v;
	while (ms_scanf(s, "%d", &v) == 1) bump(v);
	return acc;
}
`
	vm := runApp(t, src, "5 10 15")
	if vm.ReturnValue() != 30 {
		t.Fatalf("acc = %d, want 30", vm.ReturnValue())
	}
}

func TestFloatArithmetic(t *testing.T) {
	src := `
StorageApp int favg(ms_stream s) {
	float sum = 0.0;
	int n = 0;
	float v;
	while (ms_scanf(s, "%f", &v) == 1) {
		sum = sum + v;
		n++;
	}
	if (n > 0) {
		ms_emit_f64(sum / (float)n);
	}
	return n;
}
`
	out, ret := runAppOutput(t, src, "1.0 2.0 3.0 4.0")
	if ret != 4 {
		t.Fatalf("n = %d", ret)
	}
	got := math.Float64frombits(binary.LittleEndian.Uint64(out))
	if got != 2.5 {
		t.Fatalf("avg = %v, want 2.5", got)
	}
}

func TestLogicalShortCircuit(t *testing.T) {
	// The right side of && must not run when the left is false: sideEffect
	// would trap with a divide by zero.
	src := `
int boom(int x) { return 1 / x; }

StorageApp int sc(ms_stream s, int zero) {
	int r = 0;
	if (zero != 0 && boom(zero) > 0) { r = 1; }
	if (zero == 0 || boom(zero) > 0) { r = r + 2; }
	return r;
}
`
	vm := runApp(t, src, "", 0)
	if vm.ReturnValue() != 2 {
		t.Fatalf("got %d, want 2", vm.ReturnValue())
	}
}

func TestPrintfSerialization(t *testing.T) {
	// The serialization direction (MWRITE): format integers back to text.
	src := `
StorageApp int ser(ms_stream s) {
	int v;
	int n = 0;
	while (ms_scanf(s, "%d", &v) == 1) {
		ms_printf("%d\n", v * 2);
		n++;
	}
	return n;
}
`
	out, ret := runAppOutput(t, src, "1 2 3")
	if ret != 3 {
		t.Fatalf("n = %d", ret)
	}
	if string(out) != "2\n4\n6\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestChunkedFeeding(t *testing.T) {
	// Tokens split across Feed boundaries must parse identically.
	prog, err := Compile(deserializeIntsSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	input := "1234 5678 91011 121314"
	for chunk := 1; chunk <= len(input); chunk++ {
		vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		pos := 0
		for {
			st := vm.Run()
			switch st {
			case mvm.StateNeedInput:
				end := pos + chunk
				if end > len(input) {
					end = len(input)
				}
				if err := vm.Feed([]byte(input[pos:end]), end == len(input)); err != nil {
					t.Fatal(err)
				}
				pos = end
			case mvm.StateOutputFull, mvm.StateFlushRequested:
				out = append(out, vm.DrainOutput()...)
			case mvm.StateHalted:
				out = append(out, vm.DrainOutput()...)
				goto done
			case mvm.StateTrapped:
				t.Fatalf("chunk=%d trap: %v", chunk, vm.TrapErr())
			}
		}
	done:
		want := []int32{1234, 5678, 91011, 121314}
		if len(out) != 4*len(want) {
			t.Fatalf("chunk=%d: got %d bytes", chunk, len(out))
		}
		for i, w := range want {
			if got := int32(binary.LittleEndian.Uint32(out[4*i:])); got != w {
				t.Fatalf("chunk=%d out[%d]=%d want %d", chunk, i, got, w)
			}
		}
		if vm.Consumed() != int64(len(input)) {
			t.Fatalf("chunk=%d consumed %d, want %d", chunk, vm.Consumed(), len(input))
		}
	}
}

// TestCompiledExpressionsMatchGo property-tests the compiler: random
// integer triples evaluated by a compiled expression must match the Go
// evaluation of the same expression.
func TestCompiledExpressionsMatchGo(t *testing.T) {
	exprs := []struct {
		src  string
		eval func(a, b, c int64) int64
	}{
		{"a + b*c", func(a, b, c int64) int64 { return a + b*c }},
		{"(a - b) ^ (c | 7)", func(a, b, c int64) int64 { return (a - b) ^ (c | 7) }},
		{"a % (b*b + 1) + c", func(a, b, c int64) int64 { return a%(b*b+1) + c }},
		{"(a < b) + (b <= c) + (a == c)", func(a, b, c int64) int64 {
			r := int64(0)
			if a < b {
				r++
			}
			if b <= c {
				r++
			}
			if a == c {
				r++
			}
			return r
		}},
		{"-a + (b >> 3) + (c << 2)", func(a, b, c int64) int64 { return -a + (b >> 3) + (c << 2) }},
		{"(a & b) | (~c & 255)", func(a, b, c int64) int64 { return (a & b) | (^c & 255) }},
	}
	for _, e := range exprs {
		src := fmt.Sprintf(`StorageApp int f(ms_stream s, int a, int b, int c) { return %s; }`, e.src)
		prog, err := Compile(src, "")
		if err != nil {
			t.Fatalf("compile %q: %v", e.src, err)
		}
		f := func(a, b, c int32) bool {
			vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			vm.SetArgs([]int64{int64(a), int64(b), int64(c)})
			vm.Feed(nil, true)
			if st := vm.Run(); st != mvm.StateHalted {
				t.Fatalf("%q: state %v (%v)", e.src, st, vm.TrapErr())
			}
			return vm.ReturnValue() == e.eval(int64(a), int64(b), int64(c))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("expression %q: %v", e.src, err)
		}
	}
}

// TestScanMatchesStrconv property-tests ms_scanf against Go's parser over
// random integer slices.
func TestScanMatchesStrconv(t *testing.T) {
	prog, err := Compile(deserializeIntsSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []int32) bool {
		var sb strings.Builder
		for _, v := range vals {
			fmt.Fprintf(&sb, "%d ", v)
		}
		vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		vm.Feed([]byte(sb.String()), true)
		var out []byte
		for {
			st := vm.Run()
			if st == mvm.StateHalted {
				out = append(out, vm.DrainOutput()...)
				break
			}
			if st == mvm.StateOutputFull || st == mvm.StateFlushRequested {
				out = append(out, vm.DrainOutput()...)
				continue
			}
			t.Fatalf("state %v: %v", st, vm.TrapErr())
		}
		if vm.ReturnValue() != int64(len(vals)) {
			return false
		}
		for i, w := range vals {
			if int32(binary.LittleEndian.Uint32(out[4*i:])) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no-app", `int f(int x) { return x; }`, "no StorageApp"},
		{"app-needs-stream", `StorageApp int f(int x) { return x; }`, "first parameter must be ms_stream"},
		{"undefined-var", `StorageApp int f(ms_stream s) { return x; }`, "undefined variable"},
		{"undefined-fn", `StorageApp int f(ms_stream s) { return g(); }`, "undefined function"},
		{"float-to-int", `StorageApp int f(ms_stream s) { int x = 1.5; return x; }`, "cannot implicitly convert"},
		{"break-outside", `StorageApp int f(ms_stream s) { break; return 0; }`, "break outside"},
		{"bad-scanf-fmt", `StorageApp int f(ms_stream s) { int v; ms_scanf(s, "%x", &v); return 0; }`, "format must be"},
		{"scanf-type", `StorageApp int f(ms_stream s) { float v; ms_scanf(s, "%d", &v); return 0; }`, "destination"},
		{"call-app", `StorageApp int f(ms_stream s) { return g(s); }
int g(ms_stream s) { return f(s); }`, "invoked by the host"},
		{"dup-fn", `int f(int a) { return a; } int f(int b) { return b; }
StorageApp int g(ms_stream s) { return 0; }`, "duplicate function"},
		{"shadow-builtin", `int ms_argc(int a) { return a; }
StorageApp int g(ms_stream s) { return 0; }`, "shadows a device-library"},
		{"stream-arith", `StorageApp int f(ms_stream s) { return s + 1; }`, "must be numeric"},
		{"float-mod", `StorageApp int f(ms_stream s) { float a = 1.0; return (int)(a % 2.0); }`, "must be integral"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "")
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestProgramImageRoundTrip(t *testing.T) {
	prog, err := Compile(deserializeIntsSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != prog.CodeSize() {
		t.Fatalf("CodeSize = %d, image is %d bytes", prog.CodeSize(), len(img))
	}
	var back mvm.Program
	if err := back.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	if back.Name != prog.Name || back.NumGlobals != prog.NumGlobals ||
		back.SRAMStatic != prog.SRAMStatic || len(back.Code) != len(prog.Code) {
		t.Fatalf("round trip mismatch: %+v vs %+v", &back, prog)
	}
	for i := range back.Code {
		if back.Code[i] != prog.Code[i] {
			t.Fatalf("instr %d: %v != %v", i, back.Code[i], prog.Code[i])
		}
	}
}

func TestMultipleApps(t *testing.T) {
	src := `
StorageApp int first(ms_stream s) { return 1; }
StorageApp int second(ms_stream s) { return 2; }
`
	if _, err := Compile(src, ""); err == nil {
		t.Fatal("expected ambiguity error")
	}
	prog, err := Compile(src, "second")
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
	vm.Feed(nil, true)
	if st := vm.Run(); st != mvm.StateHalted || vm.ReturnValue() != 2 {
		t.Fatalf("state %v ret %d", st, vm.ReturnValue())
	}
}

func TestCharArraysAndCasts(t *testing.T) {
	src := `
StorageApp int chars(ms_stream s) {
	char buf[16];
	int n = 0;
	int c = ms_read_byte(s);
	while (c >= 0 && n < 16) {
		buf[n] = (char)c;
		n++;
		c = ms_read_byte(s);
	}
	// Emit reversed.
	for (int i = n - 1; i >= 0; i--) ms_emit_byte(buf[i]);
	return n;
}
`
	out, ret := runAppOutput(t, src, "hello")
	if ret != 5 || string(out) != "olleh" {
		t.Fatalf("ret=%d out=%q", ret, out)
	}
}

func TestHexAndBinaryLiterals(t *testing.T) {
	src := `
StorageApp int masks(ms_stream s) {
	int lo = 0xFF;
	int flag = 0b1010;
	int big = 0x7FFFFFFF;
	return (lo << 8) | flag | (big & 0x100);
}
`
	vm := runApp(t, src, "")
	want := int64(0xFF<<8) | 0b1010 | (0x7FFFFFFF & 0x100)
	if vm.ReturnValue() != want {
		t.Fatalf("got %d, want %d", vm.ReturnValue(), want)
	}
	// Malformed hex must be a compile error, not a silent zero.
	if _, err := Compile(`StorageApp int f(ms_stream s) { return 0xZZ; }`, ""); err == nil {
		t.Fatal("bad hex literal must fail")
	}
}
