package mvm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// State is the VM's run state after a Run call.
type State int

// Run states.
const (
	// StateRunnable means the VM has not started or was paused externally.
	StateRunnable State = iota
	// StateNeedInput means the app tried to read past the current input
	// window and the window is not final; the firmware must Feed more.
	StateNeedInput
	// StateOutputFull means the output buffer reached the flush threshold;
	// the firmware must DrainOutput (DMA the objects out) and resume.
	StateOutputFull
	// StateFlushRequested means the app called ms_memcpy explicitly.
	StateFlushRequested
	// StateHalted means the app finished; ReturnValue is valid.
	StateHalted
	// StateTrapped means the app faulted; TrapErr describes why.
	StateTrapped
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateNeedInput:
		return "need-input"
	case StateOutputFull:
		return "output-full"
	case StateFlushRequested:
		return "flush-requested"
	case StateHalted:
		return "halted"
	case StateTrapped:
		return "trapped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config sizes the embedded-core memories visible to a StorageApp.
type Config struct {
	// DSRAMSize bounds the app's working set: static arrays + the input
	// window + the output buffer must fit (the paper: "due to the
	// capacity of D-SRAM ... the current implementation restricts the
	// maximum working set size of a single StorageApp").
	DSRAMSize int
	// OutputFlushThreshold pauses the app for a DMA drain when this many
	// output bytes are buffered.
	OutputFlushThreshold int
	// StackLimit bounds the operand stack.
	StackLimit int
	// MaxSteps aborts runaway programs (0 = unlimited).
	MaxSteps int64
	// Profile collects a per-opcode execution histogram (small runtime
	// overhead; off by default).
	Profile bool
	// Engine selects the execution engine: the closure-compiled engine
	// (the default, see compile.go) or the reference interpreter
	// (EngineInterp). Both produce bit-identical results — output bytes,
	// cycles, steps, scan counts, traps, profiles. Production code leaves
	// it at the default; the differential suites set EngineInterp to run
	// the interpreter as their oracle.
	Engine EngineKind
}

// DefaultConfig matches a controller-class core: 512 KiB D-SRAM with a
// 64 KiB output flush unit.
func DefaultConfig() Config {
	return Config{
		DSRAMSize:            512 << 10,
		OutputFlushThreshold: 64 << 10,
		StackLimit:           4096,
		MaxSteps:             0,
	}
}

type frame struct {
	retPC  int
	locals []int64
}

// VM is one StorageApp instance executing on an embedded core.
type VM struct {
	prog *Program
	cfg  Config
	cost CostModel

	pc      int
	stack   []int64
	frames  []frame
	globals []int64
	sram    []byte

	args []int64

	input      []byte
	inputPos   int
	inputFinal bool
	consumed   int64 // total input bytes consumed over the app's lifetime

	output []byte

	cycles     float64
	steps      int64
	state      State
	retVal     int64
	trapErr    error
	floatOps   int64
	intScans   int64
	floatScans int64
	profile    *Profile

	// code is the closure-compiled form of prog (nil under EngineInterp).
	code *compiledCode
	// stepLimit is cfg.MaxSteps with 0 mapped to MaxInt64, so the
	// per-instruction gate is a single compare.
	stepLimit int64
}

// NumLocals is the fixed local-slot count per frame; the compiler enforces
// it.
const NumLocals = 64

// New returns a VM ready to execute prog.
func New(prog *Program, cfg Config, cost CostModel) (*VM, error) {
	if prog.SRAMStatic > cfg.DSRAMSize {
		return nil, fmt.Errorf("mvm: program statically allocates %d bytes, D-SRAM is %d", prog.SRAMStatic, cfg.DSRAMSize)
	}
	vm := &VM{
		prog:    prog,
		cfg:     cfg,
		cost:    cost,
		globals: make([]int64, prog.NumGlobals),
		sram:    make([]byte, cfg.DSRAMSize),
		frames:  []frame{{retPC: -1, locals: make([]int64, NumLocals)}},
	}
	if cfg.Profile {
		vm.profile = newProfile()
	}
	vm.stepLimit = cfg.MaxSteps
	if vm.stepLimit <= 0 {
		vm.stepLimit = math.MaxInt64
	}
	if cfg.Engine.compiled() {
		vm.code = compileProgram(prog)
	}
	return vm, nil
}

// SetArgs sets the host-supplied argument vector (the MINIT argument
// block).
func (vm *VM) SetArgs(args []int64) { vm.args = args }

// Feed appends stream bytes to the input window. final marks the last
// chunk of the stream. Consumed prefix bytes are compacted away so the
// window occupies bounded D-SRAM.
func (vm *VM) Feed(data []byte, final bool) error {
	if vm.inputPos > 0 {
		// Compact by copying the unconsumed suffix down in place. Re-slicing
		// (input = input[inputPos:]) would permanently forfeit the consumed
		// prefix's capacity, forcing append to regrow the allocation on
		// every window.
		n := copy(vm.input, vm.input[vm.inputPos:])
		vm.input = vm.input[:n]
		vm.inputPos = 0
	}
	vm.input = append(vm.input, data...)
	vm.inputFinal = final
	if used := len(vm.input) + len(vm.output) + vm.prog.SRAMStatic; used > vm.cfg.DSRAMSize {
		vm.state = StateTrapped
		vm.trapErr = fmt.Errorf("mvm: D-SRAM overflow: window %d + output %d + static %d > %d",
			len(vm.input), len(vm.output), vm.prog.SRAMStatic, vm.cfg.DSRAMSize)
		return vm.trapErr
	}
	if vm.state == StateNeedInput {
		vm.state = StateRunnable
	}
	return nil
}

// DrainOutput returns and clears the buffered output bytes (the firmware
// DMAs these to the command's destination address). The returned slice is
// owned by the caller and never aliased by later emission.
func (vm *VM) DrainOutput() []byte {
	out := vm.output
	// The drained bytes belong to the caller, so the buffer cannot be
	// reused in place; start the next accumulation at the high-water
	// capacity so per-emit appends stop regrowing from zero every drain
	// cycle.
	vm.output = make([]byte, 0, cap(out))
	if vm.state == StateOutputFull || vm.state == StateFlushRequested {
		vm.state = StateRunnable
	}
	return out
}

// Remaining returns the unconsumed bytes still in the input window. The
// sampled-execution mode uses this to hand the partial trailing token over
// to the native continuation when it stops interpreting.
func (vm *VM) Remaining() []byte {
	out := make([]byte, len(vm.input)-vm.inputPos)
	copy(out, vm.input[vm.inputPos:])
	return out
}

// Cycles returns the accumulated embedded-core cycles.
func (vm *VM) Cycles() float64 { return vm.cycles }

// Steps returns the number of bytecode instructions executed.
func (vm *VM) Steps() int64 { return vm.steps }

// Consumed returns total input bytes the app has consumed.
func (vm *VM) Consumed() int64 { return vm.consumed }

// State returns the current run state.
func (vm *VM) State() State { return vm.state }

// ReturnValue returns the app's return value (valid once halted).
func (vm *VM) ReturnValue() int64 { return vm.retVal }

// TrapErr returns the fault description if the app trapped.
func (vm *VM) TrapErr() error { return vm.trapErr }

// FloatOps returns the count of software-emulated float operations.
func (vm *VM) FloatOps() int64 { return vm.floatOps }

// ScanCounts returns how many int and float tokens were scanned.
func (vm *VM) ScanCounts() (ints, floats int64) { return vm.intScans, vm.floatScans }

func (vm *VM) push(v int64) error {
	if len(vm.stack) >= vm.cfg.StackLimit {
		return fmt.Errorf("mvm: operand stack overflow at pc=%d", vm.pc)
	}
	vm.stack = append(vm.stack, v)
	return nil
}

func (vm *VM) pop() (int64, error) {
	if len(vm.stack) == 0 {
		return 0, fmt.Errorf("mvm: operand stack underflow at pc=%d", vm.pc)
	}
	v := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	return v, nil
}

// pushFrame pushes a fresh call frame. Frames popped by ret leave their
// locals slices in the slice's backing array, so re-entering that depth
// zeroes the retained slice instead of allocating a new one — a frame is
// 512 bytes, and call-heavy apps would otherwise allocate it on every
// call.
func (vm *VM) pushFrame(retPC int) {
	if n := len(vm.frames); n < cap(vm.frames) {
		vm.frames = vm.frames[:n+1]
		f := &vm.frames[n]
		f.retPC = retPC
		if f.locals == nil {
			f.locals = make([]int64, NumLocals)
			return
		}
		for i := range f.locals {
			f.locals[i] = 0
		}
		return
	}
	vm.frames = append(vm.frames, frame{retPC: retPC, locals: make([]int64, NumLocals)})
}

func (vm *VM) trap(format string, args ...any) State {
	vm.state = StateTrapped
	vm.trapErr = fmt.Errorf(format, args...)
	return vm.state
}

// Run executes until the app halts, traps, needs input, or fills its
// output buffer. It may be called repeatedly; intermediate states are
// resumable.
func (vm *VM) Run() State {
	if vm.state == StateHalted || vm.state == StateTrapped {
		return vm.state
	}
	vm.state = StateRunnable
	if vm.code != nil {
		return vm.runCompiled()
	}
	code := vm.prog.Code
	for {
		if vm.pc < 0 || vm.pc >= len(code) {
			return vm.trap("mvm: pc out of range: %d", vm.pc)
		}
		if vm.cfg.MaxSteps > 0 && vm.steps >= vm.cfg.MaxSteps {
			return vm.trap("mvm: step limit exceeded (%d)", vm.cfg.MaxSteps)
		}
		ins := code[vm.pc]
		vm.steps++
		vm.cycles += vm.cost.Instr
		if vm.profile != nil {
			vm.profile.ops[ins.Op]++
			if ins.Op == OpSys {
				vm.profile.noteSys(Builtin(ins.Arg))
			}
		}
		switch ins.Op {
		case OpNop:
			vm.pc++
		case OpPush:
			if err := vm.push(ins.Arg); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpPop:
			if _, err := vm.pop(); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpDup:
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(v)
			if err := vm.push(v); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpSwap:
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			b, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(a)
			vm.push(b)
			vm.pc++
		case OpLoad:
			f := &vm.frames[len(vm.frames)-1]
			if ins.Arg < 0 || int(ins.Arg) >= len(f.locals) {
				return vm.trap("mvm: local index %d out of range", ins.Arg)
			}
			if err := vm.push(f.locals[ins.Arg]); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpStore:
			f := &vm.frames[len(vm.frames)-1]
			if ins.Arg < 0 || int(ins.Arg) >= len(f.locals) {
				return vm.trap("mvm: local index %d out of range", ins.Arg)
			}
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			f.locals[ins.Arg] = v
			vm.pc++
		case OpGLoad:
			if ins.Arg < 0 || int(ins.Arg) >= len(vm.globals) {
				return vm.trap("mvm: global index %d out of range", ins.Arg)
			}
			if err := vm.push(vm.globals[ins.Arg]); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpGStore:
			if ins.Arg < 0 || int(ins.Arg) >= len(vm.globals) {
				return vm.trap("mvm: global index %d out of range", ins.Arg)
			}
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.globals[ins.Arg] = v
			vm.pc++
		case OpLd8, OpLd32, OpLd64:
			vm.cycles += vm.cost.MemOp
			addr, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			size := map[Op]int64{OpLd8: 1, OpLd32: 4, OpLd64: 8}[ins.Op]
			if addr < 0 || addr+size > int64(len(vm.sram)) {
				return vm.trap("mvm: D-SRAM load out of range: addr=%d size=%d", addr, size)
			}
			var v int64
			switch ins.Op {
			case OpLd8:
				v = int64(vm.sram[addr])
			case OpLd32:
				v = int64(int32(binary.LittleEndian.Uint32(vm.sram[addr:])))
			case OpLd64:
				v = int64(binary.LittleEndian.Uint64(vm.sram[addr:]))
			}
			if err := vm.push(v); err != nil {
				return vm.trap("%v", err)
			}
			vm.pc++
		case OpSt8, OpSt32, OpSt64:
			vm.cycles += vm.cost.MemOp
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			addr, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			size := map[Op]int64{OpSt8: 1, OpSt32: 4, OpSt64: 8}[ins.Op]
			if addr < 0 || addr+size > int64(len(vm.sram)) {
				return vm.trap("mvm: D-SRAM store out of range: addr=%d size=%d", addr, size)
			}
			switch ins.Op {
			case OpSt8:
				vm.sram[addr] = byte(v)
			case OpSt32:
				binary.LittleEndian.PutUint32(vm.sram[addr:], uint32(v))
			case OpSt64:
				binary.LittleEndian.PutUint64(vm.sram[addr:], uint64(v))
			}
			vm.pc++
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
			OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			b, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			v, err := intBinop(ins.Op, a, b)
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(v)
			vm.pc++
		case OpNeg:
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(-a)
			vm.pc++
		case OpNot:
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			if a == 0 {
				vm.push(1)
			} else {
				vm.push(0)
			}
			vm.pc++
		case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFEq, OpFLt, OpFLe:
			vm.floatOps++
			if ins.Op == OpFDiv {
				vm.cycles += vm.cost.SoftFloatDiv - vm.cost.Instr
			} else {
				vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			}
			bb, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			ab, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			a, b := math.Float64frombits(uint64(ab)), math.Float64frombits(uint64(bb))
			switch ins.Op {
			case OpFAdd:
				vm.push(int64(math.Float64bits(a + b)))
			case OpFSub:
				vm.push(int64(math.Float64bits(a - b)))
			case OpFMul:
				vm.push(int64(math.Float64bits(a * b)))
			case OpFDiv:
				vm.push(int64(math.Float64bits(a / b)))
			case OpFEq:
				vm.push(boolToInt(a == b))
			case OpFLt:
				vm.push(boolToInt(a < b))
			case OpFLe:
				vm.push(boolToInt(a <= b))
			}
			vm.pc++
		case OpFNeg:
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			ab, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(int64(math.Float64bits(-math.Float64frombits(uint64(ab)))))
			vm.pc++
		case OpI2F:
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			a, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(int64(math.Float64bits(float64(a))))
			vm.pc++
		case OpF2I:
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			ab, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			vm.push(int64(math.Float64frombits(uint64(ab))))
			vm.pc++
		case OpJmp:
			vm.cycles += vm.cost.Branch
			vm.pc = int(ins.Arg)
		case OpJz, OpJnz:
			v, err := vm.pop()
			if err != nil {
				return vm.trap("%v", err)
			}
			taken := (v == 0) == (ins.Op == OpJz)
			if taken {
				vm.cycles += vm.cost.Branch
				vm.pc = int(ins.Arg)
			} else {
				vm.pc++
			}
		case OpCall:
			vm.cycles += vm.cost.Call
			vm.pushFrame(vm.pc + 1)
			vm.pc = int(ins.Arg)
		case OpRet:
			vm.cycles += vm.cost.Call
			if len(vm.frames) == 1 {
				// Return from main = halt.
				vm.retVal = 0
				if len(vm.stack) > 0 {
					vm.retVal = vm.stack[len(vm.stack)-1]
				}
				vm.state = StateHalted
				return vm.state
			}
			f := vm.frames[len(vm.frames)-1]
			vm.frames = vm.frames[:len(vm.frames)-1]
			vm.pc = f.retPC
		case OpHalt:
			vm.retVal = 0
			if len(vm.stack) > 0 {
				vm.retVal = vm.stack[len(vm.stack)-1]
			}
			vm.state = StateHalted
			return vm.state
		case OpSys:
			st := vm.sys(Builtin(ins.Arg))
			if st != StateRunnable {
				return st
			}
		default:
			return vm.trap("mvm: illegal opcode %d at pc=%d", ins.Op, vm.pc)
		}
		if vm.state == StateOutputFull || vm.state == StateFlushRequested {
			return vm.state
		}
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func intBinop(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("mvm: integer divide by zero")
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, fmt.Errorf("mvm: integer modulo by zero")
		}
		return a % b, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpShl:
		return a << uint64(b&63), nil
	case OpShr:
		return a >> uint64(b&63), nil
	case OpEq:
		return boolToInt(a == b), nil
	case OpNe:
		return boolToInt(a != b), nil
	case OpLt:
		return boolToInt(a < b), nil
	case OpLe:
		return boolToInt(a <= b), nil
	case OpGt:
		return boolToInt(a > b), nil
	case OpGe:
		return boolToInt(a >= b), nil
	}
	return 0, fmt.Errorf("mvm: not an int binop: %d", op)
}
