// Package mvm implements the Morpheus Virtual Machine: the execution model
// of the StorageApps that run on the SSD's embedded cores. The paper
// compiles C/C++ StorageApps to the Tensilica LX instruction set of the
// controller; this reproduction compiles MorphC (internal/morphc) to the
// bytecode defined here and interprets it with a per-instruction cycle
// model, including the software-emulated floating point the paper calls
// out ("the Tensilica LX cores that we are using do not contain FPUs, the
// current library implementation ... relies on software emulation").
//
// The VM is resumable: it pauses when it needs more stream input (the
// firmware refills the window from subsequent MREAD chunks) or when its
// output buffer reaches the flush threshold (the firmware DMAs the objects
// out and the app "reuse[s] the memory buffer", §V-A).
package mvm

import (
	"encoding/binary"
	"fmt"
)

// Op is a bytecode opcode.
type Op uint8

// Stack and memory operations.
const (
	OpNop    Op = iota
	OpPush      // push immediate Arg
	OpPop       // discard top of stack
	OpDup       // duplicate top of stack
	OpSwap      // swap top two
	OpLoad      // push locals[Arg]
	OpStore     // locals[Arg] = pop
	OpGLoad     // push globals[Arg]
	OpGStore    // globals[Arg] = pop
	OpLd8       // addr=pop; push sram[addr] (unsigned byte)
	OpLd32      // addr=pop; push int32 at sram[addr]
	OpLd64      // addr=pop; push int64 at sram[addr]
	OpSt8       // v=pop, addr=pop; sram[addr]=v
	OpSt32      // v=pop, addr=pop
	OpSt64      // v=pop, addr=pop

	// Integer arithmetic (native on the embedded core).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNot

	// Comparisons push 1 or 0.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Floating point: operands are float64 bit patterns. These are the
	// software-emulated operations (no FPU).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFEq
	OpFLt
	OpFLe
	OpI2F
	OpF2I

	// Control flow. Jump targets are absolute instruction indices.
	OpJmp  // pc = Arg
	OpJz   // if pop==0 pc = Arg
	OpJnz  // if pop!=0 pc = Arg
	OpCall // push frame, pc = Arg
	OpRet  // pop frame; return value on stack if callee pushed one
	OpHalt // finish StorageApp; Arg unused, return value = pop if stack nonempty

	// Device library calls (the Morpheus library of §V-A). Arg selects the
	// builtin; see Builtin constants.
	OpSys
)

// Builtin identifies a Morpheus device-library routine. These are the
// native firmware primitives the paper's library exposes to StorageApps;
// their cycle cost is charged per byte consumed or produced rather than
// per VM instruction, reflecting that they are hand-optimized native code.
type Builtin int64

// Device-library builtins.
const (
	SysArg       Builtin = iota // i=pop; push host argument i
	SysArgc                     // push argument count
	SysScanInt                  // ms_scanf("%d"): push value, push ok
	SysScanFloat                // ms_scanf("%f"): push float bits, push ok
	SysReadByte                 // raw stream byte, -1 at EOF
	SysPeekByte                 // raw stream byte without consuming, -1 at EOF
	SysEOF                      // push 1 if the stream is exhausted
	SysEmitI32                  // v=pop; append little-endian int32 to output
	SysEmitI64                  // v=pop; append little-endian int64
	SysEmitF32                  // bits=pop (float64); append float32
	SysEmitF64                  // bits=pop; append float64
	SysEmitByte                 // v=pop; append one byte
	SysPrintInt                 // ms_printf("%d"): append decimal text
	SysPrintChar                // ms_printf("%c")
	SysFlush                    // ms_memcpy: request output DMA to the host
	SysOutLen                   // push bytes currently buffered for output
)

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Arg int64
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	name, hasArg := opInfo(i.Op)
	if i.Op == OpSys {
		return fmt.Sprintf("sys %s", Builtin(i.Arg))
	}
	if hasArg {
		return fmt.Sprintf("%s %d", name, i.Arg)
	}
	return name
}

// String names the builtin.
func (b Builtin) String() string {
	names := map[Builtin]string{
		SysArg: "arg", SysArgc: "argc", SysScanInt: "scan_int", SysScanFloat: "scan_float",
		SysReadByte: "read_byte", SysPeekByte: "peek_byte", SysEOF: "eof",
		SysEmitI32: "emit_i32", SysEmitI64: "emit_i64", SysEmitF32: "emit_f32",
		SysEmitF64: "emit_f64", SysEmitByte: "emit_byte",
		SysPrintInt: "print_int", SysPrintChar: "print_char",
		SysFlush: "flush", SysOutLen: "out_len",
	}
	if n, ok := names[b]; ok {
		return n
	}
	return fmt.Sprintf("builtin(%d)", int64(b))
}

func opInfo(op Op) (name string, hasArg bool) {
	switch op {
	case OpNop:
		return "nop", false
	case OpPush:
		return "push", true
	case OpPop:
		return "pop", false
	case OpDup:
		return "dup", false
	case OpSwap:
		return "swap", false
	case OpLoad:
		return "load", true
	case OpStore:
		return "store", true
	case OpGLoad:
		return "gload", true
	case OpGStore:
		return "gstore", true
	case OpLd8:
		return "ld8", false
	case OpLd32:
		return "ld32", false
	case OpLd64:
		return "ld64", false
	case OpSt8:
		return "st8", false
	case OpSt32:
		return "st32", false
	case OpSt64:
		return "st64", false
	case OpAdd:
		return "add", false
	case OpSub:
		return "sub", false
	case OpMul:
		return "mul", false
	case OpDiv:
		return "div", false
	case OpMod:
		return "mod", false
	case OpNeg:
		return "neg", false
	case OpAnd:
		return "and", false
	case OpOr:
		return "or", false
	case OpXor:
		return "xor", false
	case OpShl:
		return "shl", false
	case OpShr:
		return "shr", false
	case OpNot:
		return "not", false
	case OpEq:
		return "eq", false
	case OpNe:
		return "ne", false
	case OpLt:
		return "lt", false
	case OpLe:
		return "le", false
	case OpGt:
		return "gt", false
	case OpGe:
		return "ge", false
	case OpFAdd:
		return "fadd", false
	case OpFSub:
		return "fsub", false
	case OpFMul:
		return "fmul", false
	case OpFDiv:
		return "fdiv", false
	case OpFNeg:
		return "fneg", false
	case OpFEq:
		return "feq", false
	case OpFLt:
		return "flt", false
	case OpFLe:
		return "fle", false
	case OpI2F:
		return "i2f", false
	case OpF2I:
		return "f2i", false
	case OpJmp:
		return "jmp", true
	case OpJz:
		return "jz", true
	case OpJnz:
		return "jnz", true
	case OpCall:
		return "call", true
	case OpRet:
		return "ret", false
	case OpHalt:
		return "halt", false
	case OpSys:
		return "sys", true
	default:
		return fmt.Sprintf("op(%d)", uint8(op)), true
	}
}

// Program is an executable StorageApp image: code plus the sizes of its
// static memory regions.
type Program struct {
	Code       []Instr
	NumGlobals int
	// SRAMStatic is the number of D-SRAM bytes statically allocated for
	// arrays by the compiler; the VM's heap starts above it.
	SRAMStatic int
	// Name is carried for diagnostics.
	Name string
}

const imageMagic = 0x4D564D31 // "MVM1"

// MarshalBinary encodes the program into the byte image that MINIT ships
// to the device (PRP1/CDW10 of the MINIT command point at this image).
func (p *Program) MarshalBinary() ([]byte, error) {
	name := []byte(p.Name)
	if len(name) > 255 {
		name = name[:255]
	}
	buf := make([]byte, 0, 16+len(name)+10*len(p.Code))
	var hdr [17]byte
	binary.LittleEndian.PutUint32(hdr[0:4], imageMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(p.Code)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(p.NumGlobals))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(p.SRAMStatic))
	hdr[16] = byte(len(name))
	buf = append(buf, hdr[:]...)
	buf = append(buf, name...)
	for _, ins := range p.Code {
		var rec [9]byte
		rec[0] = byte(ins.Op)
		binary.LittleEndian.PutUint64(rec[1:9], uint64(ins.Arg))
		buf = append(buf, rec[:]...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a program image.
func (p *Program) UnmarshalBinary(b []byte) error {
	if len(b) < 17 {
		return fmt.Errorf("mvm: image too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != imageMagic {
		return fmt.Errorf("mvm: bad image magic")
	}
	n := int(binary.LittleEndian.Uint32(b[4:8]))
	p.NumGlobals = int(binary.LittleEndian.Uint32(b[8:12]))
	p.SRAMStatic = int(binary.LittleEndian.Uint32(b[12:16]))
	nameLen := int(b[16])
	if len(b) < 17+nameLen+9*n {
		return fmt.Errorf("mvm: truncated image")
	}
	p.Name = string(b[17 : 17+nameLen])
	p.Code = make([]Instr, n)
	off := 17 + nameLen
	for i := 0; i < n; i++ {
		p.Code[i] = Instr{
			Op:  Op(b[off]),
			Arg: int64(binary.LittleEndian.Uint64(b[off+1 : off+9])),
		}
		off += 9
	}
	return nil
}

// CodeSize returns the size of the binary image in bytes (the MINIT
// CDW10 value).
func (p *Program) CodeSize() int {
	n := len(p.Name)
	if n > 255 {
		n = 255
	}
	return 17 + n + 9*len(p.Code)
}
