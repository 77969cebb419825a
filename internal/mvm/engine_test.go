package mvm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The differential battery: every test in this file executes the same
// program, input, and Feed/Run/DrainOutput schedule under the interpreter
// and the compiled engine and requires the full observable traces —
// states after every Run, drained bytes, steps, bit-exact cycles,
// consumed counts, float ops, scan counts, return values, trap messages,
// and profile histograms — to be identical.

func mustAssemble(tb testing.TB, src string) *Program {
	tb.Helper()
	p, err := Assemble(src)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	return p
}

// traceEngine drives one VM through a deterministic schedule and renders
// everything observable into a comparable trace. chunk <= 0 feeds the
// whole input up front; otherwise input arrives in chunk-sized windows as
// the VM asks for it.
func traceEngine(tb testing.TB, p *Program, cfg Config, eng EngineKind, args []int64, input []byte, chunk int) string {
	tb.Helper()
	cfg.Engine = eng
	vm, err := New(p, cfg, DefaultCostModel())
	if err != nil {
		return "newerr: " + err.Error()
	}
	vm.SetArgs(args)
	var sb strings.Builder
	var out []byte
	pos := 0
	finalFed := false
	if chunk <= 0 {
		err := vm.Feed(input, true)
		finalFed = true
		pos = len(input)
		fmt.Fprintf(&sb, "feed n=%d final=true err=%v\n", len(input), err)
	}
	for iter := 0; iter < 1_000_000; iter++ {
		st := vm.Run()
		fmt.Fprintf(&sb, "run st=%v steps=%d cyc=%016x consumed=%d outbuf=%d\n",
			st, vm.Steps(), math.Float64bits(vm.Cycles()), vm.Consumed(), 0)
		switch st {
		case StateNeedInput:
			if finalFed {
				sb.WriteString("stuck: need-input after final\n")
				goto done
			}
			n := chunk
			if pos+n > len(input) {
				n = len(input) - pos
			}
			final := pos+n >= len(input)
			err := vm.Feed(input[pos:pos+n], final)
			pos += n
			finalFed = final
			fmt.Fprintf(&sb, "feed n=%d final=%v err=%v\n", n, final, err)
		case StateOutputFull, StateFlushRequested:
			d := vm.DrainOutput()
			out = append(out, d...)
			fmt.Fprintf(&sb, "drain n=%d\n", len(d))
		case StateHalted:
			out = append(out, vm.DrainOutput()...)
			fmt.Fprintf(&sb, "halt ret=%d\n", vm.ReturnValue())
			goto done
		case StateTrapped:
			fmt.Fprintf(&sb, "trap %v\n", vm.TrapErr())
			goto done
		default:
			fmt.Fprintf(&sb, "unexpected state %v\n", st)
			goto done
		}
	}
	sb.WriteString("iteration cap\n")
done:
	ints, floats := vm.ScanCounts()
	fmt.Fprintf(&sb, "final steps=%d cyc=%016x floatops=%d scans=%d/%d out=%x\n",
		vm.Steps(), math.Float64bits(vm.Cycles()), vm.FloatOps(), ints, floats, out)
	if prof := vm.Profile(); prof != nil {
		sb.WriteString(prof.String())
	}
	return sb.String()
}

// assertEnginesAgree runs the schedule under both engines and diffs the
// traces.
func assertEnginesAgree(t *testing.T, p *Program, cfg Config, args []int64, input []byte, chunk int) {
	t.Helper()
	it := traceEngine(t, p, cfg, EngineInterp, args, input, chunk)
	ct := traceEngine(t, p, cfg, EngineCompiled, args, input, chunk)
	if it != ct {
		t.Fatalf("engines diverge (chunk=%d)\ninterp:\n%s\ncompiled:\n%s", chunk, it, ct)
	}
}

const scanEchoSrc = `
.name scanecho
loop:
	sys scan_int
	store 1
	store 0
	load 1
	jz done
	load 0
	sys print_int
	push 10
	sys print_char
	jmp loop
done:
	push 0
	halt
`

const emitBinarySrc = `
.name emitbin
loop:
	sys scan_int
	store 1
	store 0
	load 1
	jz done
	load 0
	sys emit_i32
	load 0
	sys emit_i64
	sys out_len
	pop
	sys flush
	jmp loop
done:
	halt
`

const floatKernelSrc = `
.name floatk
loop:
	sys scan_float
	store 1
	store 0
	load 1
	jz done
	load 0
	load 0
	fadd
	sys emit_f64
	load 0
	sys emit_f32
	load 0
	i2f
	f2i
	pop
	jmp loop
done:
	halt
`

const callKernelSrc = `
.name callk
	push 0
	store 0
loop:
	load 0
	push 50
	ge
	jnz done
	load 0
	call fn
	sys emit_i32
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	halt
fn:
	push 2
	mul
	push 1
	add
	ret
`

const sramKernelSrc = `
.name sramk
	push 0
	store 0
loop:
	load 0
	push 64
	ge
	jnz done
	load 0
	push 8
	mul
	load 0
	st64
	load 0
	push 8
	mul
	ld64
	sys emit_i64
	load 0
	push 3
	mul
	ld8
	pop
	load 0
	push 1
	add
	store 0
	jmp loop
done:
	load 0
	halt
`

func engineKernels(tb testing.TB) map[string]*Program {
	return map[string]*Program{
		"scanecho": mustAssemble(tb, scanEchoSrc),
		"emitbin":  mustAssemble(tb, emitBinarySrc),
		"floatk":   mustAssemble(tb, floatKernelSrc),
		"callk":    mustAssemble(tb, callKernelSrc),
		"sramk":    mustAssemble(tb, sramKernelSrc),
	}
}

func engineInput(kernel string) []byte {
	switch kernel {
	case "floatk":
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			fmt.Fprintf(&sb, "%d.%d ", i, i%7)
		}
		return []byte(sb.String())
	default:
		var sb strings.Builder
		for i := 0; i < 96; i++ {
			fmt.Fprintf(&sb, "%d ", i*i-40)
		}
		return []byte(sb.String())
	}
}

// TestEngineDifferentialKernels sweeps chunk sizes (NeedInput landing at
// arbitrary token boundaries) and flush thresholds (OutputFull landing
// mid-block) across representative kernels.
func TestEngineDifferentialKernels(t *testing.T) {
	for name, p := range engineKernels(t) {
		input := engineInput(name)
		for _, chunk := range []int{0, 1, 3, 7, 64, 1 << 20} {
			for _, thresh := range []int{1, 4, 64, 64 << 10} {
				cfg := DefaultConfig()
				cfg.Profile = true
				cfg.OutputFlushThreshold = thresh
				assertEnginesAgree(t, p, cfg, nil, input, chunk)
			}
		}
	}
}

// TestEngineMaxStepsSweep lands the step limit on every instruction
// position of the first loop iterations — including the interior of every
// fused pair.
func TestEngineMaxStepsSweep(t *testing.T) {
	for name, p := range engineKernels(t) {
		input := engineInput(name)
		for limit := int64(1); limit <= 48; limit++ {
			cfg := DefaultConfig()
			cfg.Profile = true
			cfg.MaxSteps = limit
			assertEnginesAgree(t, p, cfg, nil, input, 16)
		}
		_ = name
	}
}

// TestEngineTrapEdges covers every trap class: stack underflow/overflow
// (including the dup and swap partial-pop quirks), divide/modulo by zero
// (standalone and fused), D-SRAM range, bad local/global indices, illegal
// opcodes, unknown builtins, pc out of range, bad scan tokens, and
// argument range.
func TestEngineTrapEdges(t *testing.T) {
	type tc struct {
		name  string
		prog  *Program
		cfg   func(*Config)
		args  []int64
		input string
	}
	asm := func(src string) *Program { return mustAssemble(t, src) }
	cases := []tc{
		{name: "pop-underflow", prog: asm("pop\nhalt")},
		{name: "add-underflow-empty", prog: asm("add\nhalt")},
		{name: "add-underflow-one", prog: asm("push 1\nadd\nhalt")},
		{name: "dup-underflow", prog: asm("dup\nhalt")},
		{name: "swap-underflow-one", prog: asm("push 1\nswap\nhalt")},
		{name: "push-overflow", prog: asm("push 1\npush 2\npush 3\nhalt"),
			cfg: func(c *Config) { c.StackLimit = 2 }},
		{name: "dup-overflow", prog: asm("push 1\ndup\nhalt"),
			cfg: func(c *Config) { c.StackLimit = 1 }},
		{name: "load-overflow", prog: asm("push 1\nload 0\nhalt"),
			cfg: func(c *Config) { c.StackLimit = 1 }},
		{name: "div-zero", prog: asm("push 1\npush 0\ndiv\nhalt")},
		{name: "mod-zero", prog: asm("push 1\npush 0\nmod\nhalt")},
		{name: "fused-load-div-zero", prog: asm("push 0\nstore 1\npush 6\nload 1\ndiv\nhalt")},
		{name: "fused-binop-store-div-zero", prog: asm("push 6\npush 0\ndiv\nstore 0\nhalt")},
		// Triple/quad superinstruction trap paths: the leading nops place
		// execution on the pc whose handler fuses the faulting shape.
		{name: "quad-store-div-zero", prog: asm("push 6\npush 0\ndiv\nstore 0\nnop\nhalt")},
		{name: "quad-branch-mod-zero", prog: asm("push 6\npush 0\nmod\njz 5\npush 1\nhalt")},
		{name: "chain-second-div-zero", prog: asm("push 7\nnop\npush 3\nmul\npush 0\ndiv\nhalt")},
		{name: "chain-first-div-zero", prog: asm("push 5\nnop\npush 0\ndiv\npush 1\nadd\nhalt")},
		{name: "chain-underflow", prog: asm("push 1\nadd\npush 2\nadd\nhalt")},
		{name: "triple-store-div-zero", prog: asm("push 6\nnop\npush 0\ndiv\nstore 2\nhalt")},
		{name: "triple-branch-mod-zero", prog: asm("push 3\nnop\npush 0\nmod\njz 0\nhalt")},
		{name: "ld-oor-negative", prog: asm("push -1\nld8\nhalt")},
		{name: "ld-oor-high", prog: asm("push 1048576\nld64\nhalt")},
		{name: "st-oor", prog: asm("push 1048576\npush 7\nst32\nhalt")},
		{name: "st-underflow", prog: asm("push 1\nst64\nhalt")},
		{name: "bad-local-load", prog: asm("load 99\nhalt")},
		{name: "bad-local-store", prog: asm("push 1\nstore 99\nhalt")},
		{name: "bad-global", prog: asm(".globals 2\ngload 5\nhalt")},
		{name: "bad-gstore", prog: asm(".globals 2\npush 1\ngstore 7\nhalt")},
		{name: "illegal-opcode", prog: &Program{Code: []Instr{{Op: 99}}}},
		{name: "unknown-builtin", prog: &Program{Code: []Instr{{Op: OpSys, Arg: 999}}}},
		{name: "pc-off-end", prog: asm("push 1\npop")},
		{name: "jmp-negative", prog: asm("jmp -5")},
		{name: "empty-program", prog: &Program{}},
		{name: "halt-empty-stack", prog: asm("halt")},
		{name: "ret-main", prog: asm("push 42\nret")},
		{name: "bad-token", prog: asm(scanEchoSrc), input: "12 34 9z9 55"},
		{name: "bad-float-token", prog: asm(floatKernelSrc), input: "1.5 2.5 no.pe 4"},
		{name: "arg-oor", prog: asm("push 7\nsys arg\nhalt"), args: []int64{1, 2}},
		{name: "argc", prog: asm("sys argc\nhalt"), args: []int64{1, 2, 3}},
		{name: "scan-eof-trailing-space", prog: asm(scanEchoSrc), input: "1 2 3   "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Profile = true
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			for _, chunk := range []int{0, 2} {
				assertEnginesAgree(t, c.prog, cfg, c.args, []byte(c.input), chunk)
			}
		})
	}
}

// TestEngineRandomSchedules is the resumable-state property test: random
// interleavings of Feed (random window sizes, sometimes empty), Run
// (including re-running a paused VM without feeding), and DrainOutput
// (sometimes deferred past the flush threshold) must drive both engines
// through identical state sequences. The rng is consumed identically on
// both sides, so any divergence shows up as a trace mismatch.
func TestEngineRandomSchedules(t *testing.T) {
	kernels := engineKernels(t)
	for name, p := range kernels {
		input := engineInput(name)
		for seed := int64(1); seed <= 12; seed++ {
			it := randomSchedule(t, p, EngineInterp, input, seed)
			ct := randomSchedule(t, p, EngineCompiled, input, seed)
			if it != ct {
				t.Fatalf("%s seed %d: engines diverge\ninterp:\n%s\ncompiled:\n%s", name, seed, it, ct)
			}
		}
	}
}

func randomSchedule(tb testing.TB, p *Program, eng EngineKind, input []byte, seed int64) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Profile = true
	cfg.OutputFlushThreshold = 1 + rng.Intn(96)
	if rng.Intn(2) == 0 {
		cfg.MaxSteps = int64(50 + rng.Intn(4000))
	}
	cfg.Engine = eng
	vm, err := New(p, cfg, DefaultCostModel())
	if err != nil {
		return "newerr: " + err.Error()
	}
	var sb strings.Builder
	var out []byte
	pos := 0
	finalFed := false
	for i := 0; i < 400; i++ {
		switch rng.Intn(4) {
		case 0: // feed a random window
			if finalFed {
				sb.WriteString("skip-feed\n")
				continue
			}
			n := rng.Intn(25)
			if pos+n > len(input) {
				n = len(input) - pos
			}
			final := pos+n >= len(input) && rng.Intn(2) == 0
			err := vm.Feed(input[pos:pos+n], final)
			pos += n
			finalFed = finalFed || final
			fmt.Fprintf(&sb, "feed n=%d final=%v err=%v\n", n, final, err)
		case 1, 2: // run
			st := vm.Run()
			ints, floats := vm.ScanCounts()
			fmt.Fprintf(&sb, "run st=%v steps=%d cyc=%016x consumed=%d fl=%d scans=%d/%d ret=%d trap=%v\n",
				st, vm.Steps(), math.Float64bits(vm.Cycles()), vm.Consumed(),
				vm.FloatOps(), ints, floats, vm.ReturnValue(), vm.TrapErr())
		case 3: // drain
			d := vm.DrainOutput()
			out = append(out, d...)
			fmt.Fprintf(&sb, "drain n=%d state=%v\n", len(d), vm.State())
		}
		if vm.State() == StateHalted || vm.State() == StateTrapped {
			break
		}
	}
	out = append(out, vm.DrainOutput()...)
	fmt.Fprintf(&sb, "final state=%v out=%x\n", vm.State(), out)
	if prof := vm.Profile(); prof != nil {
		sb.WriteString(prof.String())
	}
	return sb.String()
}

// TestEngineDefaultIsCompiled pins the config plumbing: the zero value
// and DefaultConfig select the compiled engine; EngineInterp opts out.
func TestEngineDefaultIsCompiled(t *testing.T) {
	p := mustAssemble(t, "halt")
	vm, err := New(p, DefaultConfig(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if vm.code == nil {
		t.Fatal("default config must use the compiled engine")
	}
	cfg := DefaultConfig()
	cfg.Engine = EngineInterp
	vm, err = New(p, cfg, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if vm.code != nil {
		t.Fatal("EngineInterp must not compile")
	}
	if EngineDefault.String() != "compiled" || EngineInterp.String() != "interp" {
		t.Fatalf("engine names: %v %v", EngineDefault, EngineInterp)
	}
}

// TestFeedCompactionRetainsCapacity pins the Feed satellite fix: windowed
// feeding reuses the retained buffer instead of regrowing it.
func TestFeedCompactionRetainsCapacity(t *testing.T) {
	p := mustAssemble(t, scanEchoSrc)
	cfg := DefaultConfig()
	vm, err := New(p, cfg, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	chunk := []byte("123456 ")
	for i := 0; i < 50; i++ {
		if err := vm.Feed(chunk, false); err != nil {
			t.Fatal(err)
		}
		if st := vm.Run(); st != StateNeedInput {
			t.Fatalf("state %v", st)
		}
	}
	// Each window leaves at most one partial token unconsumed, so the
	// retained buffer must stay near one chunk, not accumulate 50.
	if got := cap(vm.input); got > 4*len(chunk)+16 {
		t.Fatalf("input buffer grew to cap %d; compaction is not reusing it", got)
	}
}

// TestDrainOutputOwnership pins the DrainOutput satellite fix: drained
// bytes stay stable after further emission, and the next accumulation
// starts at the previous high-water capacity.
func TestDrainOutputOwnership(t *testing.T) {
	p := mustAssemble(t, `
loop:
	sys eof
	jnz done
	sys read_byte
	sys emit_byte
	jmp loop
done:
	halt
`)
	cfg := DefaultConfig()
	cfg.OutputFlushThreshold = 8
	vm, err := New(p, cfg, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	if err := vm.Feed(input, true); err != nil {
		t.Fatal(err)
	}
	var drains [][]byte
	var copies [][]byte
	for {
		st := vm.Run()
		if st == StateOutputFull || st == StateFlushRequested || st == StateHalted {
			d := vm.DrainOutput()
			drains = append(drains, d)
			copies = append(copies, append([]byte(nil), d...))
			if st == StateHalted {
				break
			}
			continue
		}
		t.Fatalf("state %v", st)
	}
	var total []byte
	for i := range drains {
		if string(drains[i]) != string(copies[i]) {
			t.Fatalf("drain %d mutated after later emission: %q != %q", i, drains[i], copies[i])
		}
		total = append(total, drains[i]...)
	}
	if string(total) != string(input) {
		t.Fatalf("reassembled output %q != input %q", total, input)
	}
}
