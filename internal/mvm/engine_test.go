package mvm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// The schedule battery: the interpreter is resumable at every pause, so
// how the input is windowed and when output is drained must never change
// what an app computes. Each test here drives the same program under
// different Feed/Run/DrainOutput schedules and compares the results.

func mustAssemble(tb testing.TB, src string) *Program {
	tb.Helper()
	p, err := Assemble(src)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	return p
}

// result is everything a schedule must not change. Steps and cycles are
// kept for the tests that pin them but left out of sameObjects: a
// NeedInput pause re-executes its sys instruction, so feeding in smaller
// windows charges those again.
type result struct {
	state    State
	trap     string
	ret      int64
	out      []byte
	consumed int64
	ints     int64
	floats   int64
	floatOps int64
	steps    int64
	cycles   float64
}

func resultOf(vm *VM, out []byte) result {
	r := result{state: vm.State(), ret: vm.ReturnValue(), out: out, consumed: vm.Consumed(),
		floatOps: vm.FloatOps(), steps: vm.Steps(), cycles: vm.Cycles()}
	if err := vm.TrapErr(); err != nil {
		r.trap = err.Error()
	}
	r.ints, r.floats = vm.ScanCounts()
	return r
}

// sameObjects reports whether two runs produced the same objects and
// app-visible accounting.
func sameObjects(a, b result) bool {
	return a.state == b.state && a.trap == b.trap && a.ret == b.ret && bytes.Equal(a.out, b.out) &&
		a.consumed == b.consumed && a.ints == b.ints && a.floats == b.floats && a.floatOps == b.floatOps
}

func (r result) String() string {
	return fmt.Sprintf("state=%v trap=%q ret=%d consumed=%d scans=%d/%d floatops=%d steps=%d out=%x",
		r.state, r.trap, r.ret, r.consumed, r.ints, r.floats, r.floatOps, r.steps, r.out)
}

// stream drives one VM to a terminal state the way the SSD firmware does:
// feed a window when the app asks for input, drain on every pause. chunk
// <= 0 feeds the whole input up front.
func stream(tb testing.TB, p *Program, cfg Config, args []int64, input []byte, chunk int) result {
	tb.Helper()
	vm, err := New(p, cfg, DefaultCostModel())
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	vm.SetArgs(args)
	pos := 0
	if chunk <= 0 {
		if err := vm.Feed(input, true); err != nil {
			tb.Fatalf("feed: %v", err)
		}
		pos = len(input)
	}
	var out []byte
	for range 1_000_000 {
		switch st := vm.Run(); st {
		case StateNeedInput:
			if pos >= len(input) {
				tb.Fatal("need-input after the final window")
			}
			n := min(chunk, len(input)-pos)
			if err := vm.Feed(input[pos:pos+n], pos+n >= len(input)); err != nil {
				tb.Fatalf("feed: %v", err)
			}
			pos += n
		case StateOutputFull, StateFlushRequested:
			out = append(out, vm.DrainOutput()...)
		default:
			return resultOf(vm, append(out, vm.DrainOutput()...))
		}
	}
	tb.Fatal("iteration cap")
	return result{}
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

// TestEngineDifferentialKernels pins each kernel's whole-input steps and
// cycles bit for bit (the cost model is the simulated time), then sweeps
// chunk sizes (NeedInput landing at arbitrary token boundaries) and flush
// thresholds (OutputFull landing mid-loop): every schedule must match the
// whole-input feed's objects.
func TestEngineDifferentialKernels(t *testing.T) {
	golden := map[string]struct {
		steps  int64
		cycles uint64 // math.Float64bits
	}{
		"scanecho": {967, 0x40a11199999999c1},
		"emitbin":  {1254, 0x40a04d800000004e},
		"floatk":   {1030, 0x40c4e1c666666697},
		"callk":    {857, 0x4083f4cccccccce7},
		"sramk":    {1544, 0x4090dd00000000a4},
	}
	for name, p := range engineKernels(t) {
		input := engineInput(name)
		want := stream(t, p, DefaultConfig(), nil, input, 0)
		if want.state != StateHalted || len(want.out) == 0 {
			t.Fatalf("%s: whole-input run: %v", name, want)
		}
		if g := golden[name]; want.steps != g.steps || math.Float64bits(want.cycles) != g.cycles {
			t.Fatalf("%s: %d steps, %g cycles (%#x); want %d steps, %g cycles",
				name, want.steps, want.cycles, math.Float64bits(want.cycles), g.steps, math.Float64frombits(g.cycles))
		}
		for _, chunk := range []int{0, 1, 3, 7, 64, 1 << 20} {
			for _, thresh := range []int{1, 4, 64, 64 << 10} {
				cfg := DefaultConfig()
				cfg.OutputFlushThreshold = thresh
				if got := stream(t, p, cfg, nil, input, chunk); !sameObjects(got, want) {
					t.Fatalf("%s chunk=%d thresh=%d:\ngot  %v\nwant %v", name, chunk, thresh, got, want)
				}
			}
		}
	}
}

// TestEngineMaxStepsSweep lands the step limit on every instruction of
// the first loop iterations: a limited run stops after exactly that many
// steps with the step-limit trap, having emitted a prefix of the
// unlimited run's output.
func TestEngineMaxStepsSweep(t *testing.T) {
	for name, p := range engineKernels(t) {
		input := engineInput(name)
		full := stream(t, p, DefaultConfig(), nil, input, 16)
		for limit := int64(1); limit <= 48; limit++ {
			cfg := DefaultConfig()
			cfg.MaxSteps = limit
			got := stream(t, p, cfg, nil, input, 16)
			want := fmt.Sprintf("mvm: step limit exceeded (%d)", limit)
			if got.state != StateTrapped || got.trap != want || got.steps != limit ||
				!bytes.HasPrefix(full.out, got.out) || got.consumed > full.consumed {
				t.Fatalf("%s MaxSteps=%d: %v", name, limit, got)
			}
		}
	}
}

// TestEngineTrapEdges pins every trap class — stack underflow/overflow
// (including the dup and swap partial-pop quirks), divide/modulo by zero,
// D-SRAM range, bad local/global indices, illegal opcodes, unknown
// builtins, pc out of range, bad scan tokens, argument range — to its
// final state, exact message, output and step count, with the input fed
// whole and in 2-byte windows.
func TestEngineTrapEdges(t *testing.T) {
	asm := func(src string) *Program { return mustAssemble(t, src) }
	const (
		underflow0 = "mvm: operand stack underflow at pc=0"
		underflow1 = "mvm: operand stack underflow at pc=1"
		divZero    = "mvm: integer divide by zero"
		modZero    = "mvm: integer modulo by zero"
	)
	cases := []struct {
		name  string
		prog  *Program
		cfg   func(*Config)
		args  []int64
		input string

		state State
		trap  string
		ret   int64
		out   string
		steps [2]int64 // at chunk 0 and chunk 2
	}{
		{name: "pop-underflow", prog: asm("pop\nhalt"), state: StateTrapped, trap: underflow0, steps: [2]int64{1, 1}},
		{name: "add-underflow-empty", prog: asm("add\nhalt"), state: StateTrapped, trap: underflow0, steps: [2]int64{1, 1}},
		{name: "add-underflow-one", prog: asm("push 1\nadd\nhalt"), state: StateTrapped, trap: underflow1, steps: [2]int64{2, 2}},
		{name: "dup-underflow", prog: asm("dup\nhalt"), state: StateTrapped, trap: underflow0, steps: [2]int64{1, 1}},
		{name: "swap-underflow-one", prog: asm("push 1\nswap\nhalt"), state: StateTrapped, trap: underflow1, steps: [2]int64{2, 2}},
		{name: "push-overflow", prog: asm("push 1\npush 2\npush 3\nhalt"), cfg: func(c *Config) { c.StackLimit = 2 },
			state: StateTrapped, trap: "mvm: operand stack overflow at pc=2", steps: [2]int64{3, 3}},
		{name: "dup-overflow", prog: asm("push 1\ndup\nhalt"), cfg: func(c *Config) { c.StackLimit = 1 },
			state: StateTrapped, trap: "mvm: operand stack overflow at pc=1", steps: [2]int64{2, 2}},
		{name: "load-overflow", prog: asm("push 1\nload 0\nhalt"), cfg: func(c *Config) { c.StackLimit = 1 },
			state: StateTrapped, trap: "mvm: operand stack overflow at pc=1", steps: [2]int64{2, 2}},
		{name: "div-zero", prog: asm("push 1\npush 0\ndiv\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{3, 3}},
		{name: "mod-zero", prog: asm("push 1\npush 0\nmod\nhalt"), state: StateTrapped, trap: modZero, steps: [2]int64{3, 3}},
		{name: "fused-load-div-zero", prog: asm("push 0\nstore 1\npush 6\nload 1\ndiv\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{5, 5}},
		{name: "fused-binop-store-div-zero", prog: asm("push 6\npush 0\ndiv\nstore 0\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{3, 3}},
		{name: "quad-store-div-zero", prog: asm("push 6\npush 0\ndiv\nstore 0\nnop\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{3, 3}},
		{name: "quad-branch-mod-zero", prog: asm("push 6\npush 0\nmod\njz 5\npush 1\nhalt"), state: StateTrapped, trap: modZero, steps: [2]int64{3, 3}},
		{name: "chain-second-div-zero", prog: asm("push 7\nnop\npush 3\nmul\npush 0\ndiv\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{6, 6}},
		{name: "chain-first-div-zero", prog: asm("push 5\nnop\npush 0\ndiv\npush 1\nadd\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{4, 4}},
		{name: "chain-underflow", prog: asm("push 1\nadd\npush 2\nadd\nhalt"), state: StateTrapped, trap: underflow1, steps: [2]int64{2, 2}},
		{name: "triple-store-div-zero", prog: asm("push 6\nnop\npush 0\ndiv\nstore 2\nhalt"), state: StateTrapped, trap: divZero, steps: [2]int64{4, 4}},
		{name: "triple-branch-mod-zero", prog: asm("push 3\nnop\npush 0\nmod\njz 0\nhalt"), state: StateTrapped, trap: modZero, steps: [2]int64{4, 4}},
		{name: "ld-oor-negative", prog: asm("push -1\nld8\nhalt"), state: StateTrapped,
			trap: "mvm: D-SRAM load out of range: addr=-1 size=1", steps: [2]int64{2, 2}},
		{name: "ld-oor-high", prog: asm("push 1048576\nld64\nhalt"), state: StateTrapped,
			trap: "mvm: D-SRAM load out of range: addr=1048576 size=8", steps: [2]int64{2, 2}},
		{name: "st-oor", prog: asm("push 1048576\npush 7\nst32\nhalt"), state: StateTrapped,
			trap: "mvm: D-SRAM store out of range: addr=1048576 size=4", steps: [2]int64{3, 3}},
		{name: "st-underflow", prog: asm("push 1\nst64\nhalt"), state: StateTrapped, trap: underflow1, steps: [2]int64{2, 2}},
		{name: "bad-local-load", prog: asm("load 99\nhalt"), state: StateTrapped,
			trap: "mvm: local index 99 out of range", steps: [2]int64{1, 1}},
		{name: "bad-local-store", prog: asm("push 1\nstore 99\nhalt"), state: StateTrapped,
			trap: "mvm: local index 99 out of range", steps: [2]int64{2, 2}},
		{name: "bad-global", prog: asm(".globals 2\ngload 5\nhalt"), state: StateTrapped,
			trap: "mvm: global index 5 out of range", steps: [2]int64{1, 1}},
		{name: "bad-gstore", prog: asm(".globals 2\npush 1\ngstore 7\nhalt"), state: StateTrapped,
			trap: "mvm: global index 7 out of range", steps: [2]int64{2, 2}},
		{name: "illegal-opcode", prog: &Program{Code: []Instr{{Op: 99}}}, state: StateTrapped,
			trap: "mvm: illegal opcode 99 at pc=0", steps: [2]int64{1, 1}},
		{name: "unknown-builtin", prog: &Program{Code: []Instr{{Op: OpSys, Arg: 999}}}, state: StateTrapped,
			trap: "mvm: unknown builtin 999", steps: [2]int64{1, 1}},
		{name: "pc-off-end", prog: asm("push 1\npop"), state: StateTrapped, trap: "mvm: pc out of range: 2", steps: [2]int64{2, 2}},
		{name: "jmp-negative", prog: asm("jmp -5"), state: StateTrapped, trap: "mvm: pc out of range: -5", steps: [2]int64{1, 1}},
		{name: "empty-program", prog: &Program{}, state: StateTrapped, trap: "mvm: pc out of range: 0"},
		{name: "halt-empty-stack", prog: asm("halt"), state: StateHalted, steps: [2]int64{1, 1}},
		{name: "ret-main", prog: asm("push 42\nret"), state: StateHalted, ret: 42, steps: [2]int64{2, 2}},
		{name: "bad-token", prog: asm(scanEchoSrc), input: "12 34 9z9 55", state: StateTrapped,
			trap: `mvm: ms_scanf(%d): bad token "9z9"`, out: "12\n34\n", steps: [2]int64{21, 26}},
		{name: "bad-float-token", prog: asm(floatKernelSrc), input: "1.5 2.5 no.pe 4", state: StateTrapped,
			trap: `mvm: ms_scanf(%f): bad token "no.pe"`,
			out:  "\x00\x00\x00\x00\x00\x00\b@\x00\x00\xc0?\x00\x00\x00\x00\x00\x00\x14@\x00\x00 @", steps: [2]int64{33, 40}},
		{name: "arg-oor", prog: asm("push 7\nsys arg\nhalt"), args: []int64{1, 2}, state: StateTrapped,
			trap: "mvm: argument index 7 out of range (argc=2)", steps: [2]int64{2, 2}},
		{name: "argc", prog: asm("sys argc\nhalt"), args: []int64{1, 2, 3}, state: StateHalted, ret: 3, steps: [2]int64{2, 2}},
		{name: "scan-eof-trailing-space", prog: asm(scanEchoSrc), input: "1 2 3   ", state: StateHalted,
			out: "1\n2\n3\n", steps: [2]int64{37, 41}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			for i, chunk := range []int{0, 2} {
				got := stream(t, c.prog, cfg, c.args, []byte(c.input), chunk)
				if got.state != c.state || got.trap != c.trap || got.ret != c.ret ||
					string(got.out) != c.out || got.steps != c.steps[i] {
					t.Fatalf("chunk %d: got %v\nwant state=%v trap=%q ret=%d steps=%d out=%x",
						chunk, got, c.state, c.trap, c.ret, c.steps[i], c.out)
				}
			}
		})
	}
}

// randomSchedule drives one VM through random interleavings of Feed
// (random window sizes, sometimes empty, final at a random point past the
// end), Run (including re-running a paused VM without feeding it) and
// DrainOutput (sometimes deferred past the flush threshold), then
// finishes the stream.
func randomSchedule(tb testing.TB, p *Program, input []byte, seed int64, thresh int) result {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.OutputFlushThreshold = thresh
	vm, err := New(p, cfg, DefaultCostModel())
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	var out []byte
	pos := 0
	finalFed := false
	feed := func(n int, final bool) {
		if err := vm.Feed(input[pos:pos+n], final); err != nil {
			tb.Fatalf("feed: %v", err)
		}
		pos += n
		finalFed = final
	}
	for range 400 {
		if st := vm.State(); st == StateHalted || st == StateTrapped {
			break
		}
		switch rng.Intn(4) {
		case 0:
			if !finalFed {
				n := min(rng.Intn(25), len(input)-pos)
				feed(n, pos+n >= len(input) && rng.Intn(2) == 0)
			}
		case 1, 2:
			vm.Run()
		case 3:
			out = append(out, vm.DrainOutput()...)
		}
	}
	for {
		switch st := vm.Run(); st {
		case StateNeedInput:
			if finalFed {
				tb.Fatal("need-input after the final window")
			}
			feed(len(input)-pos, true)
		case StateOutputFull, StateFlushRequested:
			out = append(out, vm.DrainOutput()...)
		default:
			return resultOf(vm, append(out, vm.DrainOutput()...))
		}
	}
}

// FuzzVMSchedule is the resumable-state property: with MaxSteps unset, a
// random Feed/Run/DrainOutput schedule produces the same output bytes,
// return value, consumed count, scan counts and float ops as one
// whole-input feed. Its seed corpus is every kernel × 30 schedules × 3
// flush thresholds.
func FuzzVMSchedule(f *testing.F) {
	names := []string{"scanecho", "emitbin", "floatk", "callk", "sramk"}
	for k := range names {
		for seed := int64(1); seed <= 30; seed++ {
			for _, thresh := range []uint16{1, 17, 64<<10 - 1} {
				f.Add(uint8(k), seed, thresh)
			}
		}
	}
	kernels := engineKernels(f)
	f.Fuzz(func(t *testing.T, k uint8, seed int64, thresh uint16) {
		name := names[int(k)%len(names)]
		p, input := kernels[name], engineInput(name)
		want := stream(t, p, DefaultConfig(), nil, input, 0)
		got := randomSchedule(t, p, input, seed, 1+int(thresh))
		if !sameObjects(got, want) {
			t.Fatalf("%s seed=%d thresh=%d:\ngot  %v\nwant %v", name, seed, 1+int(thresh), got, want)
		}
	})
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

// TestSharedProgramAcrossGoroutines: VMs built from one Program on several
// goroutines at once (as the rig memo shares each decoded image) each
// produce exactly the result, steps and cycles included, of a VM built
// from a Program of its own.
func TestSharedProgramAcrossGoroutines(t *testing.T) {
	own := engineKernels(t)
	for name, p := range engineKernels(t) {
		input := engineInput(name)
		want := stream(t, own[name], DefaultConfig(), nil, input, 7)
		got := make([]result, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = stream(t, p, DefaultConfig(), nil, input, 7)
			}()
		}
		wg.Wait()
		for i, g := range got {
			if !sameObjects(g, want) || g.steps != want.steps || g.cycles != want.cycles {
				t.Fatalf("%s: goroutine %d differs from a VM on its own Program:\n%v\nwant:\n%v", name, i, g, want)
			}
		}
	}
}
