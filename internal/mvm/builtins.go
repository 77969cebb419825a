package mvm

import (
	"encoding/binary"
	"math"
	"strconv"
)

// sys executes one device-library call. It returns StateRunnable when the
// VM may continue, or a pause/terminal state. Library routines are charged
// per byte consumed/produced plus a fixed dispatch cost, reflecting that
// they are native firmware rather than interpreted bytecode.
func (vm *VM) sys(b Builtin) State {
	switch b {
	case SysArg:
		i, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		vm.cycles += vm.cost.SysFixed
		if i < 0 || int(i) >= len(vm.args) {
			return vm.trap("mvm: argument index %d out of range (argc=%d)", i, len(vm.args))
		}
		vm.push(vm.args[i])
		vm.pc++
	case SysArgc:
		vm.cycles += vm.cost.SysFixed
		vm.push(int64(len(vm.args)))
		vm.pc++
	case SysScanInt:
		return vm.scanToken(false)
	case SysScanFloat:
		return vm.scanToken(true)
	case SysReadByte:
		if vm.inputPos >= len(vm.input) && !vm.inputFinal {
			vm.state = StateNeedInput
			return vm.state // pc unchanged: re-executes after Feed
		}
		vm.cycles += vm.cost.SysFixed
		if vm.inputPos >= len(vm.input) {
			vm.push(-1)
		} else {
			vm.push(int64(vm.input[vm.inputPos]))
			vm.inputPos++
			vm.consumed++
		}
		vm.pc++
	case SysPeekByte:
		if vm.inputPos >= len(vm.input) && !vm.inputFinal {
			vm.state = StateNeedInput
			return vm.state
		}
		vm.cycles += vm.cost.SysFixed
		if vm.inputPos >= len(vm.input) {
			vm.push(-1)
		} else {
			vm.push(int64(vm.input[vm.inputPos]))
		}
		vm.pc++
	case SysEOF:
		if vm.inputPos >= len(vm.input) && !vm.inputFinal {
			vm.state = StateNeedInput
			return vm.state
		}
		vm.cycles += vm.cost.SysFixed
		if vm.inputPos >= len(vm.input) {
			vm.push(1)
		} else {
			vm.push(0)
		}
		vm.pc++
	case SysEmitI32, SysEmitI64, SysEmitF32, SysEmitF64, SysEmitByte:
		v, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		n0 := len(vm.output)
		switch b {
		case SysEmitI32:
			vm.output = binary.LittleEndian.AppendUint32(vm.output, uint32(v))
		case SysEmitF32:
			vm.output = binary.LittleEndian.AppendUint32(vm.output, math.Float32bits(float32(math.Float64frombits(uint64(v)))))
		case SysEmitI64, SysEmitF64:
			vm.output = binary.LittleEndian.AppendUint64(vm.output, uint64(v))
		case SysEmitByte:
			vm.output = append(vm.output, byte(v))
		}
		vm.cycles += vm.cost.SysFixed + vm.cost.EmitPerByte*float64(len(vm.output)-n0)
		vm.pc++
		vm.checkOutput()
	case SysPrintInt:
		v, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		n0 := len(vm.output)
		vm.output = strconv.AppendInt(vm.output, v, 10)
		vm.cycles += vm.cost.SysFixed + vm.cost.PrintPerByte*float64(len(vm.output)-n0)
		vm.pc++
		vm.checkOutput()
	case SysPrintChar:
		v, err := vm.pop()
		if err != nil {
			return vm.trap("%v", err)
		}
		vm.output = append(vm.output, byte(v))
		vm.cycles += vm.cost.SysFixed + vm.cost.PrintPerByte
		vm.pc++
		vm.checkOutput()
	case SysFlush:
		vm.cycles += vm.cost.SysFixed
		vm.pc++
		if len(vm.output) > 0 {
			vm.state = StateFlushRequested
			return vm.state
		}
	case SysOutLen:
		vm.cycles += vm.cost.SysFixed
		vm.push(int64(len(vm.output)))
		vm.pc++
	default:
		return vm.trap("mvm: unknown builtin %d", int64(b))
	}
	return StateRunnable
}

func (vm *VM) checkOutput() {
	if len(vm.output) >= vm.cfg.OutputFlushThreshold {
		vm.state = StateOutputFull
	}
}

// scanToken implements ms_scanf("%d") / ms_scanf("%f"): skip whitespace,
// consume one token, push (value, ok). If the window ends before the token
// provably ends and more input may arrive, the VM pauses with NeedInput
// without consuming anything, so the call re-executes after Feed.
func (vm *VM) scanToken(isFloat bool) State {
	in, pos := vm.input, vm.inputPos
	// Skip whitespace.
	i := pos
	for i < len(in) && isSpace(in[i]) {
		i++
	}
	if i >= len(in) && !vm.inputFinal {
		vm.state = StateNeedInput
		return vm.state
	}
	start := i
	for i < len(in) && !isSpace(in[i]) {
		i++
	}
	if i >= len(in) && !vm.inputFinal {
		// Token may continue into the next chunk.
		vm.state = StateNeedInput
		return vm.state
	}
	tokLen := i - start
	consumed := i - pos
	perByte, fixed := vm.cost.ScanIntPerByte, vm.cost.ScanIntFixed
	if isFloat {
		perByte, fixed = vm.cost.ScanFloatPerByte, vm.cost.ScanFloatFixed
	}
	vm.cycles += fixed + perByte*float64(consumed)
	if tokLen == 0 {
		// End of stream: ok=0.
		vm.inputPos = i
		vm.consumed += int64(consumed)
		vm.push(0)
		if err := vm.push(0); err != nil {
			return vm.trap("%v", err)
		}
		vm.pc++
		return StateRunnable
	}
	// The string conversions passed straight to strconv do not escape, so
	// a well-formed token allocates nothing; only the trap message keeps
	// a copy of the token.
	var value int64
	if isFloat {
		f, err := strconv.ParseFloat(string(in[start:i]), 64)
		if err != nil {
			return vm.trap("mvm: ms_scanf(%%f): bad token %q", in[start:i])
		}
		value = int64(math.Float64bits(f))
		vm.floatScans++
	} else {
		n, err := strconv.ParseInt(string(in[start:i]), 10, 64)
		if err != nil {
			return vm.trap("mvm: ms_scanf(%%d): bad token %q", in[start:i])
		}
		value = n
		vm.intScans++
	}
	vm.inputPos = i
	vm.consumed += int64(consumed)
	vm.push(value)
	if err := vm.push(1); err != nil {
		return vm.trap("%v", err)
	}
	vm.pc++
	return StateRunnable
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\n' || b == '\t' || b == '\r' || b == ','
}
