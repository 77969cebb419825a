package mvm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, p *Program, input string, args ...int64) *VM {
	t.Helper()
	vm, err := New(p, DefaultConfig(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	vm.SetArgs(args)
	if err := vm.Feed([]byte(input), true); err != nil {
		t.Fatal(err)
	}
	if st := vm.Run(); st != StateHalted {
		t.Fatalf("state %v: %v", st, vm.TrapErr())
	}
	return vm
}

func TestAssembleRun(t *testing.T) {
	src := `
.name addtwo
	push 40
	push 2
	add
	halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := run(t, p, "")
	if vm.ReturnValue() != 42 {
		t.Fatalf("ret = %d", vm.ReturnValue())
	}
	if p.Name != "addtwo" {
		t.Fatalf("name = %q", p.Name)
	}
}

func TestAssembleLabelsAndLoops(t *testing.T) {
	// Sum 1..10 with a loop.
	src := `
	push 0      ; acc in local 0
	store 0
	push 1      ; i in local 1
	store 1
loop:
	load 1
	push 10
	gt
	jnz done
	load 0
	load 1
	add
	store 0
	load 1
	push 1
	add
	store 1
	jmp loop
done:
	load 0
	halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := run(t, p, "")
	if vm.ReturnValue() != 55 {
		t.Fatalf("sum = %d", vm.ReturnValue())
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus 1",
		"jmp nowhere\nhalt",
		"push",
		"add 3",
		"sys not_a_builtin",
		"dup: dup: halt", // duplicate label via repeated definition
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
.name rt
.globals 2
.sram 128
	push 5
	store 0
L:	load 0
	push 1
	sub
	store 0
	load 0
	jnz L
	sys argc
	halt
`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(Disassemble(p1))
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, Disassemble(p1))
	}
	if len(p1.Code) != len(p2.Code) || p1.NumGlobals != p2.NumGlobals || p1.SRAMStatic != p2.SRAMStatic {
		t.Fatal("round trip changed the program shape")
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("instr %d: %v != %v", i, p1.Code[i], p2.Code[i])
		}
	}
}

func TestImageRoundTripProperty(t *testing.T) {
	f := func(ops []uint8, args []int64, globals uint8, sram uint16) bool {
		n := len(ops)
		if len(args) < n {
			n = len(args)
		}
		p := &Program{Name: "prop", NumGlobals: int(globals), SRAMStatic: int(sram)}
		for i := 0; i < n; i++ {
			p.Code = append(p.Code, Instr{Op: Op(ops[i]), Arg: args[i]})
		}
		img, err := p.MarshalBinary()
		if err != nil || len(img) != p.CodeSize() {
			return false
		}
		var back Program
		if err := back.UnmarshalBinary(img); err != nil {
			return false
		}
		if back.Name != p.Name || back.NumGlobals != p.NumGlobals || back.SRAMStatic != p.SRAMStatic || len(back.Code) != len(p.Code) {
			return false
		}
		for i := range p.Code {
			if back.Code[i] != p.Code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSoftFloatCosts(t *testing.T) {
	intProg, _ := Assemble("push 1\npush 2\nadd\nhalt")
	fltProg, _ := Assemble("push 1\ni2f\npush 2\ni2f\nfadd\nhalt")
	vi := run(t, intProg, "")
	vf := run(t, fltProg, "")
	if vf.Cycles() < vi.Cycles()+2*DefaultCostModel().SoftFloat {
		t.Fatalf("float path %v cycles vs int %v — softfloat penalty missing", vf.Cycles(), vi.Cycles())
	}
	if vf.FloatOps() != 3 {
		t.Fatalf("float ops = %d", vf.FloatOps())
	}
	got := math.Float64frombits(uint64(vf.ReturnValue()))
	if got != 3 {
		t.Fatalf("1.0+2.0 = %v", got)
	}
}

func TestTraps(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"push 1\npush 0\ndiv\nhalt", "divide by zero"},
		{"push 1\npush 0\nmod\nhalt", "modulo by zero"},
		{"pop\nhalt", "underflow"},
		{"load 99\nhalt", "local index"},
		{"gload 0\nhalt", "global index"},
		{"push -5\nld64\nhalt", "out of range"},
		{"jmp 999\nhalt", "pc out of range"},
	}
	for _, c := range cases {
		p, err := Assemble(c.src)
		if err != nil {
			t.Fatalf("assemble %q: %v", c.src, err)
		}
		vm, _ := New(p, DefaultConfig(), DefaultCostModel())
		vm.Feed(nil, true)
		if st := vm.Run(); st != StateTrapped {
			t.Fatalf("%q: state %v, want trap", c.src, st)
		} else if !strings.Contains(vm.TrapErr().Error(), c.want) {
			t.Fatalf("%q: trap %q does not mention %q", c.src, vm.TrapErr(), c.want)
		}
	}
}

func TestStepLimit(t *testing.T) {
	p, _ := Assemble("L: jmp L")
	cfg := DefaultConfig()
	cfg.MaxSteps = 1000
	vm, _ := New(p, cfg, DefaultCostModel())
	vm.Feed(nil, true)
	if st := vm.Run(); st != StateTrapped {
		t.Fatalf("infinite loop must trip the step limit, got %v", st)
	}
}

func TestOutputFlushThreshold(t *testing.T) {
	// Emit bytes forever; the VM must pause at the flush threshold.
	src := `
L:	push 65
	sys emit_byte
	jmp L
`
	p, _ := Assemble(src)
	cfg := DefaultConfig()
	cfg.OutputFlushThreshold = 128
	vm, _ := New(p, cfg, DefaultCostModel())
	vm.Feed(nil, true)
	if st := vm.Run(); st != StateOutputFull {
		t.Fatalf("state %v, want output-full", st)
	}
	out := vm.DrainOutput()
	if len(out) < 128 {
		t.Fatalf("drained %d bytes", len(out))
	}
	if st := vm.Run(); st != StateOutputFull {
		t.Fatalf("resume state %v", st)
	}
}

func TestDSRAMOverflowOnFeed(t *testing.T) {
	p, _ := Assemble("sys read_byte\nhalt")
	cfg := DefaultConfig()
	cfg.DSRAMSize = 64
	vm, _ := New(p, cfg, DefaultCostModel())
	if err := vm.Feed(make([]byte, 1024), false); err == nil {
		t.Fatal("overfeeding D-SRAM must fail")
	}
	if vm.State() != StateTrapped {
		t.Fatalf("state = %v", vm.State())
	}
}

func TestProgramTooBigForSRAM(t *testing.T) {
	p := &Program{Code: []Instr{{Op: OpHalt}}, SRAMStatic: 1 << 30}
	if _, err := New(p, DefaultConfig(), DefaultCostModel()); err == nil {
		t.Fatal("static allocation beyond D-SRAM must fail")
	}
}

func TestConsumed(t *testing.T) {
	p, _ := Assemble("sys read_byte\npop\nsys read_byte\npop\nhalt")
	vm, _ := New(p, DefaultConfig(), DefaultCostModel())
	vm.Feed([]byte("abcdef"), true)
	vm.Run()
	if vm.Consumed() != 2 {
		t.Fatalf("consumed = %d", vm.Consumed())
	}
}

func TestIntArithmeticMatchesGoProperty(t *testing.T) {
	// add/sub/mul/and/or/xor/shl/shr through the interpreter equal Go.
	ops := []struct {
		mnemonic string
		eval     func(a, b int64) int64
	}{
		{"add", func(a, b int64) int64 { return a + b }},
		{"sub", func(a, b int64) int64 { return a - b }},
		{"mul", func(a, b int64) int64 { return a * b }},
		{"and", func(a, b int64) int64 { return a & b }},
		{"or", func(a, b int64) int64 { return a | b }},
		{"xor", func(a, b int64) int64 { return a ^ b }},
		{"shl", func(a, b int64) int64 { return a << uint64(b&63) }},
		{"shr", func(a, b int64) int64 { return a >> uint64(b&63) }},
	}
	for _, op := range ops {
		op := op
		f := func(a, b int64) bool {
			src := "push " + itoa(a) + "\npush " + itoa(b) + "\n" + op.mnemonic + "\nhalt"
			p, err := Assemble(src)
			if err != nil {
				return false
			}
			vm, _ := New(p, DefaultConfig(), DefaultCostModel())
			vm.Feed(nil, true)
			if vm.Run() != StateHalted {
				return false
			}
			return vm.ReturnValue() == op.eval(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", op.mnemonic, err)
		}
	}
}

func itoa(v int64) string {
	// strconv-free to keep the test import list short is silly; just use
	// the stdlib via Sprintf-like formatting.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var b [24]byte
	i := len(b)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func TestProfileHistogram(t *testing.T) {
	p, _ := Assemble(`
	push 3
	store 0
L:	load 0
	push 1
	sub
	store 0
	load 0
	jnz L
	sys argc
	halt
`)
	cfg := DefaultConfig()
	cfg.Profile = true
	vm, _ := New(p, cfg, DefaultCostModel())
	vm.Feed(nil, true)
	if vm.Run() != StateHalted {
		t.Fatal("did not halt")
	}
	prof := vm.Profile()
	if prof == nil {
		t.Fatal("profile must be collected when enabled")
	}
	if prof.OpCount(OpLoad) != 6 { // 2 loads x 3 iterations
		t.Fatalf("load count = %d, want 6", prof.OpCount(OpLoad))
	}
	if prof.BuiltinCount(SysArgc) != 1 {
		t.Fatalf("argc count = %d", prof.BuiltinCount(SysArgc))
	}
	if prof.Total() != vm.Steps() {
		t.Fatalf("profile total %d != steps %d", prof.Total(), vm.Steps())
	}
	if !strings.Contains(prof.String(), "sys argc") {
		t.Fatalf("histogram rendering:\n%s", prof.String())
	}
	// Disabled by default.
	vm2, _ := New(p, DefaultConfig(), DefaultCostModel())
	vm2.Feed(nil, true)
	vm2.Run()
	if vm2.Profile() != nil {
		t.Fatal("profile must be nil when disabled")
	}
}
