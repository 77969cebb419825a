package mvm

import (
	"encoding/binary"
	"math"
)

// This file implements the compiled execution engine: a one-time
// translation of a Program into a chain of Go closures, one handler per
// instruction index, with superinstructions fused over the dominant
// sequences the MorphC code generator emits — quads (compare-and-branch,
// x = a op b, expression chains), triples, and pairs (scan+store,
// push/load + store/branch/binop/emit, store+store, store+jmp). Compared
// with the reference interpreter in vm.go the compiled engine removes the
// per-instruction switch dispatch, the error-checked push/pop calls, the
// per-execution map literals in the D-SRAM loads/stores, the transient
// stack traffic inside fused sequences, and the per-token string
// allocation in the integer scanner.
//
// The engine is behaviorally identical to the interpreter by
// construction: every handler performs the interpreter's accounting
// (step-limit gate, step count, base cycle charge, profile increment) in
// the interpreter's order, replicates its stack effects on every trap
// path, and formats the same trap messages. Cycle accounting in
// particular stays per instruction — float64 addition is not associative,
// so batching `n*Instr` per block would change the accumulated value in
// the last bits; Cycles() must be bit-identical under either engine.
// Resumable states need no special casing: a pause (NeedInput,
// OutputFull, FlushRequested) can leave the pc pointing at the interior
// of a fused pair, and the dispatch loop simply enters the single-op (or
// differently fused) handler installed at that index.

// opFn executes the instruction(s) at one code index. It returns
// StateRunnable to continue dispatch, or a pause/terminal state.
type opFn func(*VM) State

// compiledCode is a Program translated to closures, indexable by pc.
type compiledCode struct {
	ops []opFn
}

// EngineKind selects how a VM executes bytecode. The zero value
// (EngineDefault) resolves to the compiled engine; EngineInterp selects
// the reference interpreter. Both engines produce bit-identical results —
// output bytes, cycles, steps, scan counts, traps, profiles — so the
// choice only affects host wall-clock.
type EngineKind uint8

// Engine kinds.
const (
	EngineDefault EngineKind = iota
	EngineInterp
	EngineCompiled
)

// compiled reports whether the kind resolves to the compiled engine.
func (e EngineKind) compiled() bool { return e != EngineInterp }

// String names the resolved engine.
func (e EngineKind) String() string {
	if e == EngineInterp {
		return "interp"
	}
	return "compiled"
}

// runCompiled is the compiled engine's dispatch loop. The pc-range check
// mirrors the interpreter's loop head; everything else lives inside the
// handlers.
func (vm *VM) runCompiled() State {
	ops := vm.code.ops
	for {
		pc := vm.pc
		if pc < 0 || pc >= len(ops) {
			return vm.trap("mvm: pc out of range: %d", pc)
		}
		if st := ops[pc](vm); st != StateRunnable {
			return st
		}
	}
}

// account performs the bookkeeping the interpreter does at the top of
// every instruction: the step-limit gate, the step count, the base cycle
// charge, and the opcode profile. It returns false when the step limit
// fires (the caller traps without executing).
func (vm *VM) account(op Op) bool {
	if vm.steps >= vm.stepLimit {
		return false
	}
	vm.steps++
	vm.cycles += vm.cost.Instr
	if vm.profile != nil {
		vm.profile.ops[op]++
	}
	return true
}

// Trap helpers formatting the interpreter's exact messages. vm.pc still
// holds the faulting instruction's index when these run (handlers only
// advance pc on success), so the embedded pc matches the interpreter's.

func (vm *VM) trapStepLimit() State {
	return vm.trap("mvm: step limit exceeded (%d)", vm.cfg.MaxSteps)
}

func (vm *VM) trapOverflow() State {
	return vm.trap("mvm: operand stack overflow at pc=%d", vm.pc)
}

func (vm *VM) trapUnderflow() State {
	return vm.trap("mvm: operand stack underflow at pc=%d", vm.pc)
}

// compileProgram translates every instruction to a handler. An index
// whose (pc, pc+1) pair matches a fusion pattern gets the fused handler;
// the interior index keeps its own single-op handler so any resume or
// jump-target pc stays valid. Fusing across a branch target is safe for
// the same reason: a taken jump dispatches through the target's own
// handler, never through the middle of a fused pair.
func compileProgram(p *Program) *compiledCode {
	code := p.Code
	ops := make([]opFn, len(code))
	for pc := range code {
		var f opFn
		if pc+3 < len(code) {
			f = fuseQuad(p, pc, code[pc], code[pc+1], code[pc+2], code[pc+3])
		}
		if f == nil && pc+2 < len(code) {
			f = fuseTriple(p, pc, code[pc], code[pc+1], code[pc+2])
		}
		if f == nil && pc+1 < len(code) {
			f = fusePair(p, pc, code[pc], code[pc+1])
		}
		if f == nil {
			f = compileOne(p, pc, code[pc])
		}
		ops[pc] = f
	}
	return &compiledCode{ops: ops}
}

func localIdxOK(arg int64) bool { return arg >= 0 && arg < NumLocals }

func globalIdxOK(p *Program, arg int64) bool { return arg >= 0 && int(arg) < p.NumGlobals }

func isIntBinop(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

func isEmitBuiltin(b Builtin) bool {
	switch b {
	case SysEmitI32, SysEmitI64, SysEmitF32, SysEmitF64, SysEmitByte,
		SysPrintInt, SysPrintChar:
		return true
	}
	return false
}

// Producer kinds: instructions that push exactly one value with no side
// effects beyond the push — the left half of every producer+consumer
// superinstruction.
const (
	prodConst = iota
	prodLocal
	prodGlobal
)

// producer describes a push/load/gload statically. Fused handlers capture
// it by value and call read, which is small enough to inline — the value
// reaches the consumer without an indirect call and without touching the
// operand stack.
type producer struct {
	kind int
	c    int64 // prodConst: the immediate
	slot int   // prodLocal/prodGlobal: the slot index
	op   Op    // original opcode, for accounting
}

func (pr producer) read(vm *VM) int64 {
	switch pr.kind {
	case prodConst:
		return pr.c
	case prodLocal:
		return vm.frames[len(vm.frames)-1].locals[pr.slot]
	default:
		return vm.globals[pr.slot]
	}
}

// producerFor recognizes producer instructions with statically valid
// arguments.
func producerFor(p *Program, ins Instr) (producer, bool) {
	switch ins.Op {
	case OpPush:
		return producer{kind: prodConst, c: ins.Arg, op: OpPush}, true
	case OpLoad:
		if !localIdxOK(ins.Arg) {
			return producer{}, false
		}
		return producer{kind: prodLocal, slot: int(ins.Arg), op: OpLoad}, true
	case OpGLoad:
		if !globalIdxOK(p, ins.Arg) {
			return producer{}, false
		}
		return producer{kind: prodGlobal, slot: int(ins.Arg), op: OpGLoad}, true
	}
	return producer{}, false
}

// fusePair returns a superinstruction handler for the pair at pc, or nil
// when the pair matches no pattern. Patterns only fire when the second
// instruction's static argument is valid — invalid arguments fall back to
// the single-op handlers, which trap exactly like the interpreter.
func fusePair(p *Program, pc int, a, b Instr) opFn {
	// ms_scanf lowering: `sys scan_*` directly followed by `store ok`.
	if a.Op == OpSys && b.Op == OpStore && localIdxOK(b.Arg) {
		if sb := Builtin(a.Arg); sb == SysScanInt || sb == SysScanFloat {
			return genScanStore(pc, sb, int(b.Arg))
		}
	}
	if pr, ok := producerFor(p, a); ok {
		switch {
		case b.Op == OpStore && localIdxOK(b.Arg):
			return genProdStore(pc, pr, OpStore, int(b.Arg), false)
		case b.Op == OpGStore && globalIdxOK(p, b.Arg):
			return genProdStore(pc, pr, OpGStore, int(b.Arg), true)
		case b.Op == OpJz || b.Op == OpJnz:
			return genProdBranch(pc, pr, b.Op, int(b.Arg))
		case b.Op == OpSys && isEmitBuiltin(Builtin(b.Arg)):
			return genProdEmit(pc, pr, Builtin(b.Arg))
		case isIntBinop(b.Op):
			return genProdBinop(pc, pr, b.Op)
		}
		if pr2, ok2 := producerFor(p, b); ok2 {
			return genProdProd(pc, pr, pr2)
		}
		return nil
	}
	if isIntBinop(a.Op) {
		switch {
		case b.Op == OpStore && localIdxOK(b.Arg):
			return genBinopStore(pc, a.Op, int(b.Arg), false)
		case b.Op == OpGStore && globalIdxOK(p, b.Arg):
			return genBinopStore(pc, a.Op, int(b.Arg), true)
		case b.Op == OpJz || b.Op == OpJnz:
			return genBinopBranch(pc, a.Op, b.Op, int(b.Arg))
		}
		return nil
	}
	if a.Op == OpStore && localIdxOK(a.Arg) {
		switch {
		case b.Op == OpStore && localIdxOK(b.Arg):
			return genStoreStore(pc, int(a.Arg), int(b.Arg))
		case b.Op == OpJmp:
			return genStoreJmp(pc, int(a.Arg), int(b.Arg))
		}
	}
	return nil
}

// fuseQuad returns a superinstruction for the four instructions at pc, or
// nil. The two shapes are the loop skeletons MorphC emits everywhere:
// `<prod> <prod> <binop> <jz/jnz|store>` (compare-and-branch, or
// x = a op b) and `<prod> <binop> <prod> <binop>` (an expression chain
// folding two operations into the stack top).
func fuseQuad(p *Program, pc int, a, b, c, d Instr) opFn {
	pr1, ok := producerFor(p, a)
	if !ok {
		return nil
	}
	if pr2, ok2 := producerFor(p, b); ok2 && isIntBinop(c.Op) {
		switch {
		case d.Op == OpJz || d.Op == OpJnz:
			return genProdProdBinopBranch(pc, pr1, pr2, c.Op, d.Op, int(d.Arg))
		case d.Op == OpStore && localIdxOK(d.Arg):
			return genProdProdBinopStore(pc, pr1, pr2, c.Op, int(d.Arg), false)
		case d.Op == OpGStore && globalIdxOK(p, d.Arg):
			return genProdProdBinopStore(pc, pr1, pr2, c.Op, int(d.Arg), true)
		}
		return nil
	}
	if isIntBinop(b.Op) && isIntBinop(d.Op) {
		if pr2, ok2 := producerFor(p, c); ok2 {
			return genProdBinopChain(pc, pr1, b.Op, pr2, d.Op)
		}
	}
	return nil
}

// fuseTriple returns a superinstruction for the three instructions at pc,
// or nil: the prefixes of the quad shapes, kept when the fourth
// instruction doesn't extend them.
func fuseTriple(p *Program, pc int, a, b, c Instr) opFn {
	pr1, ok := producerFor(p, a)
	if !ok {
		return nil
	}
	if pr2, ok2 := producerFor(p, b); ok2 && isIntBinop(c.Op) {
		return genProdProdBinop(pc, pr1, pr2, c.Op)
	}
	if isIntBinop(b.Op) {
		switch {
		case c.Op == OpStore && localIdxOK(c.Arg):
			return genProdBinopStore(pc, pr1, b.Op, int(c.Arg), false)
		case c.Op == OpGStore && globalIdxOK(p, c.Arg):
			return genProdBinopStore(pc, pr1, b.Op, int(c.Arg), true)
		case c.Op == OpJz || c.Op == OpJnz:
			return genProdBinopBranch(pc, pr1, b.Op, c.Op, int(c.Arg))
		}
	}
	return nil
}

// The longer superinstructions elide every transient stack slot, so each
// early exit (step limit mid-sequence, binop error) must first materialize
// the stack exactly as the interpreter would have left it and point pc at
// the instruction that faulted.

// prodProdBinop is the shared prefix of the three-producer shapes: push
// v1, push v2, fold them with an integer binop. It returns the result and
// stTrap != StateRunnable when the sequence stopped early (with the stack
// and pc already materialized).
func (vm *VM) prodProdBinop(pc int, pr1, pr2 producer, bop Op) (r int64, st State) {
	if !vm.account(pr1.op) {
		return 0, vm.trapStepLimit()
	}
	n := len(vm.stack)
	if n >= vm.cfg.StackLimit {
		return 0, vm.trapOverflow()
	}
	v1 := pr1.read(vm)
	if !vm.account(pr2.op) {
		vm.stack = append(vm.stack, v1)
		vm.pc = pc + 1
		return 0, vm.trapStepLimit()
	}
	if n+1 >= vm.cfg.StackLimit {
		vm.stack = append(vm.stack, v1)
		vm.pc = pc + 1
		return 0, vm.trapOverflow()
	}
	v2 := pr2.read(vm)
	if !vm.account(bop) {
		vm.stack = append(vm.stack, v1, v2)
		vm.pc = pc + 2
		return 0, vm.trapStepLimit()
	}
	r, err := intBinop(bop, v1, v2)
	if err != nil {
		// Both operands were (conceptually) popped; the stack is back at n.
		vm.pc = pc + 2
		return 0, vm.trap("%v", err)
	}
	return r, StateRunnable
}

// genProdProdBinop fuses `<prod> <prod> <binop>`, pushing the folded
// result.
func genProdProdBinop(pc int, pr1, pr2 producer, bop Op) opFn {
	return func(vm *VM) State {
		r, st := vm.prodProdBinop(pc, pr1, pr2, bop)
		if st != StateRunnable {
			return st
		}
		vm.stack = append(vm.stack, r)
		vm.pc = pc + 3
		return StateRunnable
	}
}

// genProdProdBinopBranch fuses `<prod> <prod> <binop> <jz/jnz>` — the
// loop-header compare-and-branch — into one handler with no stack traffic.
func genProdProdBinopBranch(pc int, pr1, pr2 producer, bop, jop Op, tgt int) opFn {
	isJz := jop == OpJz
	return func(vm *VM) State {
		r, st := vm.prodProdBinop(pc, pr1, pr2, bop)
		if st != StateRunnable {
			return st
		}
		if !vm.account(jop) {
			vm.stack = append(vm.stack, r)
			vm.pc = pc + 3
			return vm.trapStepLimit()
		}
		if (r == 0) == isJz {
			vm.cycles += vm.cost.Branch
			vm.pc = tgt
		} else {
			vm.pc = pc + 4
		}
		return StateRunnable
	}
}

// genProdProdBinopStore fuses `<prod> <prod> <binop> <store/gstore>` — the
// `x = a op b` statement — into one handler with no stack traffic.
func genProdProdBinopStore(pc int, pr1, pr2 producer, bop Op, slot int, global bool) opFn {
	sop := OpStore
	if global {
		sop = OpGStore
	}
	return func(vm *VM) State {
		r, st := vm.prodProdBinop(pc, pr1, pr2, bop)
		if st != StateRunnable {
			return st
		}
		if !vm.account(sop) {
			vm.stack = append(vm.stack, r)
			vm.pc = pc + 3
			return vm.trapStepLimit()
		}
		if global {
			vm.globals[slot] = r
		} else {
			vm.frames[len(vm.frames)-1].locals[slot] = r
		}
		vm.pc = pc + 4
		return StateRunnable
	}
}

// prodBinopFold is the shared prefix of the fold-into-top shapes: push v,
// fold it into the stack top with an integer binop, leaving the result in
// a register. The top slot still holds the stale left operand until the
// caller writes it back or truncates.
func (vm *VM) prodBinopFold(pc int, pr producer, bop Op) (r int64, n int, st State) {
	if !vm.account(pr.op) {
		return 0, 0, vm.trapStepLimit()
	}
	n = len(vm.stack)
	if n >= vm.cfg.StackLimit {
		return 0, 0, vm.trapOverflow()
	}
	v := pr.read(vm)
	if !vm.account(bop) {
		vm.stack = append(vm.stack, v)
		vm.pc = pc + 1
		return 0, 0, vm.trapStepLimit()
	}
	if n == 0 {
		// The produced value was popped back off; the left operand is
		// missing.
		vm.pc = pc + 1
		return 0, 0, vm.trapUnderflow()
	}
	r, err := intBinop(bop, vm.stack[n-1], v)
	if err != nil {
		vm.stack = vm.stack[:n-1]
		vm.pc = pc + 1
		return 0, 0, vm.trap("%v", err)
	}
	return r, n, StateRunnable
}

// genProdBinopStore fuses `<prod> <binop> <store/gstore>`, consuming the
// stack top.
func genProdBinopStore(pc int, pr producer, bop Op, slot int, global bool) opFn {
	sop := OpStore
	if global {
		sop = OpGStore
	}
	return func(vm *VM) State {
		r, n, st := vm.prodBinopFold(pc, pr, bop)
		if st != StateRunnable {
			return st
		}
		if !vm.account(sop) {
			vm.stack[n-1] = r
			vm.pc = pc + 2
			return vm.trapStepLimit()
		}
		if global {
			vm.globals[slot] = r
		} else {
			vm.frames[len(vm.frames)-1].locals[slot] = r
		}
		vm.stack = vm.stack[:n-1]
		vm.pc = pc + 3
		return StateRunnable
	}
}

// genProdBinopBranch fuses `<prod> <binop> <jz/jnz>`, consuming the stack
// top.
func genProdBinopBranch(pc int, pr producer, bop, jop Op, tgt int) opFn {
	isJz := jop == OpJz
	return func(vm *VM) State {
		r, n, st := vm.prodBinopFold(pc, pr, bop)
		if st != StateRunnable {
			return st
		}
		if !vm.account(jop) {
			vm.stack[n-1] = r
			vm.pc = pc + 2
			return vm.trapStepLimit()
		}
		vm.stack = vm.stack[:n-1]
		if (r == 0) == isJz {
			vm.cycles += vm.cost.Branch
			vm.pc = tgt
		} else {
			vm.pc = pc + 3
		}
		return StateRunnable
	}
}

// genProdBinopChain fuses `<prod> <binop> <prod> <binop>` — two successive
// folds into the stack top, e.g. `(x * 3) ^ 7` — keeping the intermediate
// in a register.
func genProdBinopChain(pc int, pr1 producer, bop1 Op, pr2 producer, bop2 Op) opFn {
	return func(vm *VM) State {
		r1, n, st := vm.prodBinopFold(pc, pr1, bop1)
		if st != StateRunnable {
			return st
		}
		// The second producer's overflow check is len(stack) == n against
		// the same limit already checked above, so it cannot fire.
		if !vm.account(pr2.op) {
			vm.stack[n-1] = r1
			vm.pc = pc + 2
			return vm.trapStepLimit()
		}
		v2 := pr2.read(vm)
		if !vm.account(bop2) {
			vm.stack[n-1] = r1
			vm.stack = append(vm.stack, v2)
			vm.pc = pc + 3
			return vm.trapStepLimit()
		}
		r2, err := intBinop(bop2, r1, v2)
		if err != nil {
			vm.stack = vm.stack[:n-1]
			vm.pc = pc + 3
			return vm.trap("%v", err)
		}
		vm.stack[n-1] = r2
		vm.pc = pc + 4
		return StateRunnable
	}
}

// genScanStore fuses `sys scan_*; store slot` — the hottest pair in every
// deserialization kernel (the ok flag of each token lands in a scratch
// local). scanToken handles NeedInput/trap exactly as in the interpreter;
// when it returns Runnable both result pushes succeeded, so the store's
// pop cannot underflow.
func genScanStore(pc int, sb Builtin, slot int) opFn {
	isFloat := sb == SysScanFloat
	return func(vm *VM) State {
		if !vm.account(OpSys) {
			return vm.trapStepLimit()
		}
		if vm.profile != nil {
			vm.profile.noteSys(sb)
		}
		var st State
		if isFloat {
			st = vm.scanToken(true)
		} else {
			st = vm.scanIntFast()
		}
		if st != StateRunnable {
			return st
		}
		// scanToken advanced pc to pc+1 — exactly the store's index.
		if !vm.account(OpStore) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		vm.frames[len(vm.frames)-1].locals[slot] = vm.stack[n-1]
		vm.stack = vm.stack[:n-1]
		vm.pc = pc + 2
		return StateRunnable
	}
}

// genProdStore fuses a producer with `store`/`gstore`, eliding the
// transient push+pop.
func genProdStore(pc int, pr producer, bop Op, slot int, global bool) opFn {
	return func(vm *VM) State {
		if !vm.account(pr.op) {
			return vm.trapStepLimit()
		}
		if len(vm.stack) >= vm.cfg.StackLimit {
			return vm.trapOverflow()
		}
		v := pr.read(vm)
		if !vm.account(bop) {
			vm.stack = append(vm.stack, v)
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if global {
			vm.globals[slot] = v
		} else {
			vm.frames[len(vm.frames)-1].locals[slot] = v
		}
		vm.pc = pc + 2
		return StateRunnable
	}
}

// genProdBranch fuses a producer with a conditional branch.
func genProdBranch(pc int, pr producer, jop Op, tgt int) opFn {
	isJz := jop == OpJz
	return func(vm *VM) State {
		if !vm.account(pr.op) {
			return vm.trapStepLimit()
		}
		if len(vm.stack) >= vm.cfg.StackLimit {
			return vm.trapOverflow()
		}
		v := pr.read(vm)
		if !vm.account(jop) {
			vm.stack = append(vm.stack, v)
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if (v == 0) == isJz {
			vm.cycles += vm.cost.Branch
			vm.pc = tgt
		} else {
			vm.pc = pc + 2
		}
		return StateRunnable
	}
}

// genProdBinop fuses a producer with an integer binop; the produced value
// is the binop's right operand, the left comes from the stack top.
func genProdBinop(pc int, pr producer, bop Op) opFn {
	return func(vm *VM) State {
		if !vm.account(pr.op) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		if n >= vm.cfg.StackLimit {
			return vm.trapOverflow()
		}
		v2 := pr.read(vm)
		if !vm.account(bop) {
			vm.stack = append(vm.stack, v2)
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if n == 0 {
			// The produced value was popped back off; the left operand is
			// missing.
			vm.pc = pc + 1
			return vm.trapUnderflow()
		}
		v, err := intBinop(bop, vm.stack[n-1], v2)
		if err != nil {
			vm.stack = vm.stack[:n-1]
			vm.pc = pc + 1
			return vm.trap("%v", err)
		}
		vm.stack[n-1] = v
		vm.pc = pc + 2
		return StateRunnable
	}
}

// genProdEmit fuses a producer with an output builtin (`sys emit_*` /
// `print_*`), handing the value straight to the shared emission helper.
func genProdEmit(pc int, pr producer, b Builtin) opFn {
	return func(vm *VM) State {
		if !vm.account(pr.op) {
			return vm.trapStepLimit()
		}
		if len(vm.stack) >= vm.cfg.StackLimit {
			return vm.trapOverflow()
		}
		v := pr.read(vm)
		if !vm.account(OpSys) {
			vm.stack = append(vm.stack, v)
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if vm.profile != nil {
			vm.profile.noteSys(b)
		}
		vm.pc = pc + 1 // the helper's pc++ lands after the pair
		switch b {
		case SysPrintInt:
			vm.sysPrintIntVal(v)
		case SysPrintChar:
			vm.sysPrintCharVal(v)
		default:
			vm.sysEmitVal(b, v)
		}
		if vm.state != StateRunnable {
			return vm.state
		}
		return StateRunnable
	}
}

// genProdProd fuses two adjacent producers into a double push.
func genProdProd(pc int, pr1, pr2 producer) opFn {
	return func(vm *VM) State {
		if !vm.account(pr1.op) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		if n >= vm.cfg.StackLimit {
			return vm.trapOverflow()
		}
		vm.stack = append(vm.stack, pr1.read(vm))
		if !vm.account(pr2.op) {
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if n+1 >= vm.cfg.StackLimit {
			vm.pc = pc + 1
			return vm.trapOverflow()
		}
		vm.stack = append(vm.stack, pr2.read(vm))
		vm.pc = pc + 2
		return StateRunnable
	}
}

// genBinopStore fuses an integer binop with the store of its result.
func genBinopStore(pc int, bop Op, slot int, global bool) opFn {
	sop := OpStore
	if global {
		sop = OpGStore
	}
	return func(vm *VM) State {
		if !vm.account(bop) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		if n == 0 {
			return vm.trapUnderflow()
		}
		if n == 1 {
			vm.stack = vm.stack[:0]
			return vm.trapUnderflow()
		}
		rhs, lhs := vm.stack[n-1], vm.stack[n-2]
		vm.stack = vm.stack[:n-2]
		v, err := intBinop(bop, lhs, rhs)
		if err != nil {
			return vm.trap("%v", err)
		}
		if !vm.account(sop) {
			vm.stack = append(vm.stack, v)
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if global {
			vm.globals[slot] = v
		} else {
			vm.frames[len(vm.frames)-1].locals[slot] = v
		}
		vm.pc = pc + 2
		return StateRunnable
	}
}

// genBinopBranch fuses an integer binop (typically a comparison) with the
// conditional branch consuming its result.
func genBinopBranch(pc int, bop, jop Op, tgt int) opFn {
	isJz := jop == OpJz
	return func(vm *VM) State {
		if !vm.account(bop) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		if n == 0 {
			return vm.trapUnderflow()
		}
		if n == 1 {
			vm.stack = vm.stack[:0]
			return vm.trapUnderflow()
		}
		rhs, lhs := vm.stack[n-1], vm.stack[n-2]
		vm.stack = vm.stack[:n-2]
		v, err := intBinop(bop, lhs, rhs)
		if err != nil {
			return vm.trap("%v", err)
		}
		if !vm.account(jop) {
			vm.stack = append(vm.stack, v)
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if (v == 0) == isJz {
			vm.cycles += vm.cost.Branch
			vm.pc = tgt
		} else {
			vm.pc = pc + 2
		}
		return StateRunnable
	}
}

// genStoreStore fuses two adjacent local stores (the value/ok pair of
// every lowered ms_scanf call).
func genStoreStore(pc, s1, s2 int) opFn {
	return func(vm *VM) State {
		if !vm.account(OpStore) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		if n == 0 {
			return vm.trapUnderflow()
		}
		f := &vm.frames[len(vm.frames)-1]
		f.locals[s1] = vm.stack[n-1]
		if !vm.account(OpStore) {
			vm.stack = vm.stack[:n-1]
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		if n == 1 {
			vm.stack = vm.stack[:0]
			vm.pc = pc + 1
			return vm.trapUnderflow()
		}
		f.locals[s2] = vm.stack[n-2]
		vm.stack = vm.stack[:n-2]
		vm.pc = pc + 2
		return StateRunnable
	}
}

// genStoreJmp fuses a local store with the unconditional back-edge that
// closes most scan loops.
func genStoreJmp(pc, slot, tgt int) opFn {
	return func(vm *VM) State {
		if !vm.account(OpStore) {
			return vm.trapStepLimit()
		}
		n := len(vm.stack)
		if n == 0 {
			return vm.trapUnderflow()
		}
		vm.frames[len(vm.frames)-1].locals[slot] = vm.stack[n-1]
		vm.stack = vm.stack[:n-1]
		if !vm.account(OpJmp) {
			vm.pc = pc + 1
			return vm.trapStepLimit()
		}
		vm.cycles += vm.cost.Branch
		vm.pc = tgt
		return StateRunnable
	}
}

// compileOne translates a single instruction, replicating the matching
// interpreter case's stack effects, cycle charges, and trap messages.
func compileOne(p *Program, pc int, ins Instr) opFn {
	next := pc + 1
	switch ins.Op {
	case OpNop:
		return func(vm *VM) State {
			if !vm.account(OpNop) {
				return vm.trapStepLimit()
			}
			vm.pc = next
			return StateRunnable
		}
	case OpPush:
		imm := ins.Arg
		return func(vm *VM) State {
			if !vm.account(OpPush) {
				return vm.trapStepLimit()
			}
			if len(vm.stack) >= vm.cfg.StackLimit {
				return vm.trapOverflow()
			}
			vm.stack = append(vm.stack, imm)
			vm.pc = next
			return StateRunnable
		}
	case OpPop:
		return func(vm *VM) State {
			if !vm.account(OpPop) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.stack = vm.stack[:n-1]
			vm.pc = next
			return StateRunnable
		}
	case OpDup:
		return func(vm *VM) State {
			if !vm.account(OpDup) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			if n >= vm.cfg.StackLimit {
				// Interpreter: pop, unchecked re-push, checked push — the
				// stack is net unchanged and the second push overflows.
				return vm.trapOverflow()
			}
			vm.stack = append(vm.stack, vm.stack[n-1])
			vm.pc = next
			return StateRunnable
		}
	case OpSwap:
		return func(vm *VM) State {
			if !vm.account(OpSwap) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			if n == 1 {
				// The first pop succeeded before the second underflowed.
				vm.stack = vm.stack[:0]
				return vm.trapUnderflow()
			}
			vm.stack[n-1], vm.stack[n-2] = vm.stack[n-2], vm.stack[n-1]
			vm.pc = next
			return StateRunnable
		}
	case OpLoad, OpGLoad:
		if pr, ok := producerFor(p, ins); ok {
			return func(vm *VM) State {
				if !vm.account(pr.op) {
					return vm.trapStepLimit()
				}
				if len(vm.stack) >= vm.cfg.StackLimit {
					return vm.trapOverflow()
				}
				vm.stack = append(vm.stack, pr.read(vm))
				vm.pc = next
				return StateRunnable
			}
		}
		return genBadIndex(ins)
	case OpStore:
		if !localIdxOK(ins.Arg) {
			return genBadIndex(ins)
		}
		slot := int(ins.Arg)
		return func(vm *VM) State {
			if !vm.account(OpStore) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.frames[len(vm.frames)-1].locals[slot] = vm.stack[n-1]
			vm.stack = vm.stack[:n-1]
			vm.pc = next
			return StateRunnable
		}
	case OpGStore:
		if !globalIdxOK(p, ins.Arg) {
			return genBadIndex(ins)
		}
		slot := int(ins.Arg)
		return func(vm *VM) State {
			if !vm.account(OpGStore) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.globals[slot] = vm.stack[n-1]
			vm.stack = vm.stack[:n-1]
			vm.pc = next
			return StateRunnable
		}
	case OpLd8, OpLd32, OpLd64:
		op := ins.Op
		var size int64
		switch op {
		case OpLd8:
			size = 1
		case OpLd32:
			size = 4
		default:
			size = 8
		}
		return func(vm *VM) State {
			if !vm.account(op) {
				return vm.trapStepLimit()
			}
			vm.cycles += vm.cost.MemOp
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			addr := vm.stack[n-1]
			if addr < 0 || addr+size > int64(len(vm.sram)) {
				vm.stack = vm.stack[:n-1]
				return vm.trap("mvm: D-SRAM load out of range: addr=%d size=%d", addr, size)
			}
			var v int64
			switch op {
			case OpLd8:
				v = int64(vm.sram[addr])
			case OpLd32:
				v = int64(int32(binary.LittleEndian.Uint32(vm.sram[addr:])))
			default:
				v = int64(binary.LittleEndian.Uint64(vm.sram[addr:]))
			}
			vm.stack[n-1] = v
			vm.pc = next
			return StateRunnable
		}
	case OpSt8, OpSt32, OpSt64:
		op := ins.Op
		var size int64
		switch op {
		case OpSt8:
			size = 1
		case OpSt32:
			size = 4
		default:
			size = 8
		}
		return func(vm *VM) State {
			if !vm.account(op) {
				return vm.trapStepLimit()
			}
			vm.cycles += vm.cost.MemOp
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			if n == 1 {
				vm.stack = vm.stack[:0]
				return vm.trapUnderflow()
			}
			v, addr := vm.stack[n-1], vm.stack[n-2]
			vm.stack = vm.stack[:n-2]
			if addr < 0 || addr+size > int64(len(vm.sram)) {
				return vm.trap("mvm: D-SRAM store out of range: addr=%d size=%d", addr, size)
			}
			switch op {
			case OpSt8:
				vm.sram[addr] = byte(v)
			case OpSt32:
				binary.LittleEndian.PutUint32(vm.sram[addr:], uint32(v))
			default:
				binary.LittleEndian.PutUint64(vm.sram[addr:], uint64(v))
			}
			vm.pc = next
			return StateRunnable
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		op := ins.Op
		return func(vm *VM) State {
			if !vm.account(op) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			if n == 1 {
				vm.stack = vm.stack[:0]
				return vm.trapUnderflow()
			}
			rhs, lhs := vm.stack[n-1], vm.stack[n-2]
			v, err := intBinop(op, lhs, rhs)
			if err != nil {
				vm.stack = vm.stack[:n-2]
				return vm.trap("%v", err)
			}
			vm.stack = vm.stack[:n-1]
			vm.stack[n-2] = v
			vm.pc = next
			return StateRunnable
		}
	case OpNeg:
		return func(vm *VM) State {
			if !vm.account(OpNeg) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.stack[n-1] = -vm.stack[n-1]
			vm.pc = next
			return StateRunnable
		}
	case OpNot:
		return func(vm *VM) State {
			if !vm.account(OpNot) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			if vm.stack[n-1] == 0 {
				vm.stack[n-1] = 1
			} else {
				vm.stack[n-1] = 0
			}
			vm.pc = next
			return StateRunnable
		}
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpFEq, OpFLt, OpFLe:
		op := ins.Op
		return func(vm *VM) State {
			if !vm.account(op) {
				return vm.trapStepLimit()
			}
			vm.floatOps++
			if op == OpFDiv {
				vm.cycles += vm.cost.SoftFloatDiv - vm.cost.Instr
			} else {
				vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			if n == 1 {
				vm.stack = vm.stack[:0]
				return vm.trapUnderflow()
			}
			a := math.Float64frombits(uint64(vm.stack[n-2]))
			b := math.Float64frombits(uint64(vm.stack[n-1]))
			var v int64
			switch op {
			case OpFAdd:
				v = int64(math.Float64bits(a + b))
			case OpFSub:
				v = int64(math.Float64bits(a - b))
			case OpFMul:
				v = int64(math.Float64bits(a * b))
			case OpFDiv:
				v = int64(math.Float64bits(a / b))
			case OpFEq:
				v = boolToInt(a == b)
			case OpFLt:
				v = boolToInt(a < b)
			default:
				v = boolToInt(a <= b)
			}
			vm.stack = vm.stack[:n-1]
			vm.stack[n-2] = v
			vm.pc = next
			return StateRunnable
		}
	case OpFNeg:
		return func(vm *VM) State {
			if !vm.account(OpFNeg) {
				return vm.trapStepLimit()
			}
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.stack[n-1] = int64(math.Float64bits(-math.Float64frombits(uint64(vm.stack[n-1]))))
			vm.pc = next
			return StateRunnable
		}
	case OpI2F:
		return func(vm *VM) State {
			if !vm.account(OpI2F) {
				return vm.trapStepLimit()
			}
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.stack[n-1] = int64(math.Float64bits(float64(vm.stack[n-1])))
			vm.pc = next
			return StateRunnable
		}
	case OpF2I:
		return func(vm *VM) State {
			if !vm.account(OpF2I) {
				return vm.trapStepLimit()
			}
			vm.floatOps++
			vm.cycles += vm.cost.SoftFloat - vm.cost.Instr
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			vm.stack[n-1] = int64(math.Float64frombits(uint64(vm.stack[n-1])))
			vm.pc = next
			return StateRunnable
		}
	case OpJmp:
		tgt := int(ins.Arg)
		return func(vm *VM) State {
			if !vm.account(OpJmp) {
				return vm.trapStepLimit()
			}
			vm.cycles += vm.cost.Branch
			vm.pc = tgt
			return StateRunnable
		}
	case OpJz, OpJnz:
		op := ins.Op
		isJz := op == OpJz
		tgt := int(ins.Arg)
		return func(vm *VM) State {
			if !vm.account(op) {
				return vm.trapStepLimit()
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			v := vm.stack[n-1]
			vm.stack = vm.stack[:n-1]
			if (v == 0) == isJz {
				vm.cycles += vm.cost.Branch
				vm.pc = tgt
			} else {
				vm.pc = next
			}
			return StateRunnable
		}
	case OpCall:
		tgt := int(ins.Arg)
		return func(vm *VM) State {
			if !vm.account(OpCall) {
				return vm.trapStepLimit()
			}
			vm.cycles += vm.cost.Call
			vm.pushFrame(next)
			vm.pc = tgt
			return StateRunnable
		}
	case OpRet:
		return func(vm *VM) State {
			if !vm.account(OpRet) {
				return vm.trapStepLimit()
			}
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
			return StateRunnable
		}
	case OpHalt:
		return func(vm *VM) State {
			if !vm.account(OpHalt) {
				return vm.trapStepLimit()
			}
			vm.retVal = 0
			if len(vm.stack) > 0 {
				vm.retVal = vm.stack[len(vm.stack)-1]
			}
			vm.state = StateHalted
			return vm.state
		}
	case OpSys:
		return compileSys(pc, Builtin(ins.Arg))
	default:
		op := ins.Op
		return func(vm *VM) State {
			if !vm.account(op) {
				return vm.trapStepLimit()
			}
			return vm.trap("mvm: illegal opcode %d at pc=%d", op, vm.pc)
		}
	}
}

// genBadIndex handles load/store instructions whose static index is out
// of range: always-trap handlers with the interpreter's message.
func genBadIndex(ins Instr) opFn {
	op, arg := ins.Op, ins.Arg
	kind := "local"
	if op == OpGLoad || op == OpGStore {
		kind = "global"
	}
	return func(vm *VM) State {
		if !vm.account(op) {
			return vm.trapStepLimit()
		}
		return vm.trap("mvm: %s index %d out of range", kind, arg)
	}
}

// scanIntFast is the compiled engine's ms_scanf("%d"). It is observably
// identical to scanToken(false) — same value, cycle charge, consumed
// count, pushes, pauses, and traps — but parses the common case (a plain
// decimal token of at most 18 digits, fully inside the window) in place,
// skipping the per-token string allocation and strconv call. Anything
// else — window edges, empty tokens, sign-only or oversized or malformed
// tokens — defers to scanToken, whose strconv-based parse defines the
// semantics.
func (vm *VM) scanIntFast() State {
	in, pos := vm.input, vm.inputPos
	i := pos
	for i < len(in) && isSpace(in[i]) {
		i++
	}
	start := i
	for i < len(in) && !isSpace(in[i]) {
		i++
	}
	if i >= len(in) && !vm.inputFinal {
		// Whitespace or token may continue into the next chunk.
		return vm.scanToken(false)
	}
	j := start
	if j < i && (in[j] == '-' || in[j] == '+') {
		j++
	}
	if j == i || i-j > 18 {
		return vm.scanToken(false)
	}
	var u uint64
	for ; j < i; j++ {
		c := in[j] - '0'
		if c > 9 {
			return vm.scanToken(false)
		}
		u = u*10 + uint64(c)
	}
	// 18 digits fit in int64; apply the sign and commit exactly as
	// scanToken does.
	value := int64(u)
	if in[start] == '-' {
		value = -value
	}
	consumed := i - pos
	vm.cycles += vm.cost.ScanIntFixed + vm.cost.ScanIntPerByte*float64(consumed)
	vm.intScans++
	vm.inputPos = i
	vm.consumed += int64(consumed)
	vm.push(value)
	if err := vm.push(1); err != nil {
		return vm.trap("%v", err)
	}
	vm.pc++
	return StateRunnable
}

// compileSys translates `sys` instructions. The scan and emit builtins get
// specialized handlers; everything else performs the shared accounting and
// delegates to the interpreter's sys dispatch, so the two engines share
// one implementation of the device library.
func compileSys(pc int, b Builtin) opFn {
	switch b {
	case SysScanInt, SysScanFloat:
		isFloat := b == SysScanFloat
		sb := b
		return func(vm *VM) State {
			if !vm.account(OpSys) {
				return vm.trapStepLimit()
			}
			if vm.profile != nil {
				vm.profile.noteSys(sb)
			}
			if isFloat {
				return vm.scanToken(true)
			}
			return vm.scanIntFast()
		}
	case SysEmitI32, SysEmitI64, SysEmitF32, SysEmitF64, SysEmitByte, SysPrintInt, SysPrintChar:
		eb := b
		return func(vm *VM) State {
			if !vm.account(OpSys) {
				return vm.trapStepLimit()
			}
			if vm.profile != nil {
				vm.profile.noteSys(eb)
			}
			n := len(vm.stack)
			if n == 0 {
				return vm.trapUnderflow()
			}
			v := vm.stack[n-1]
			vm.stack = vm.stack[:n-1]
			switch eb {
			case SysPrintInt:
				vm.sysPrintIntVal(v)
			case SysPrintChar:
				vm.sysPrintCharVal(v)
			default:
				vm.sysEmitVal(eb, v)
			}
			if vm.state != StateRunnable {
				return vm.state
			}
			return StateRunnable
		}
	default:
		sb := b
		return func(vm *VM) State {
			if !vm.account(OpSys) {
				return vm.trapStepLimit()
			}
			if vm.profile != nil {
				vm.profile.noteSys(sb)
			}
			if st := vm.sys(sb); st != StateRunnable {
				return st
			}
			if vm.state != StateRunnable {
				return vm.state
			}
			return StateRunnable
		}
	}
}
