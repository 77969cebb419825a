// Package nvme defines the NVM Express commands exchanged between the
// simulated host and the simulated SSD: typed submission commands and
// completions, the Identify page, and the four Morpheus extension opcodes
// (MINIT, MREAD, MWRITE, MDEINIT) the paper adds in the vendor-specific
// opcode space.
//
// Commands are passed as typed values, not as wire bytes. Their fields
// carry the NVMe 1.2 dwords the paper assigns (PRP1/PRP2, CDW10-13; see
// the builders below), and the host model charges the 64-byte SQE and
// 16-byte CQE sizes as submission and completion cost.
package nvme

import (
	"errors"
	"fmt"
)

// CommandSize is the size of an NVMe submission queue entry, charged as
// host memory traffic and PCIe fetch per command.
const CommandSize = 64

// CompletionSize is the size of an NVMe completion queue entry, charged
// as PCIe post and host memory traffic per completion.
const CompletionSize = 16

// ErrQueueFull reports a submission larger than the submission queue can
// publish with one doorbell.
var ErrQueueFull = errors.New("nvme: submission queue full")

// Opcode is an NVMe command opcode (one byte, as the paper notes: "NVMe
// ... uses one byte inside the command packet to store the opcode").
type Opcode uint8

// NVM command set opcodes (I/O queue).
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02

	// Morpheus extension opcodes. The NVMe spec reserves opcodes with the
	// two top bits set (0xC0-0xFF) for vendor-specific I/O commands; the
	// paper exploits exactly this headroom ("the latest NVMe standard
	// defines only 14 admin commands and 11 I/O commands, allowing
	// Morpheus-SSD to add new commands in this one-byte opcode space").
	OpMInit   Opcode = 0xC0
	OpMRead   Opcode = 0xC1
	OpMWrite  Opcode = 0xC2
	OpMDeinit Opcode = 0xC3
)

// Admin command opcodes (admin queue).
const (
	OpAdminCreateIOSQ Opcode = 0x01
	OpAdminCreateIOCQ Opcode = 0x05
	OpAdminIdentify   Opcode = 0x06
	OpAdminSetFeature Opcode = 0x09
	OpAdminGetFeature Opcode = 0x0A
)

// IsMorpheus reports whether the opcode is one of the four extensions.
func (op Opcode) IsMorpheus() bool {
	switch op {
	case OpMInit, OpMRead, OpMWrite, OpMDeinit:
		return true
	}
	return false
}

// String names the opcode.
func (op Opcode) String() string {
	switch op {
	case OpFlush:
		return "FLUSH"
	case OpWrite:
		return "WRITE"
	case OpRead:
		return "READ"
	case OpMInit:
		return "MINIT"
	case OpMRead:
		return "MREAD"
	case OpMWrite:
		return "MWRITE"
	case OpMDeinit:
		return "MDEINIT"
	case OpAdminIdentify:
		return "IDENTIFY"
	default:
		return fmt.Sprintf("OP(0x%02X)", uint8(op))
	}
}

// Command is one NVMe submission queue entry. As the paper describes,
// "each command uses 4 bytes for the header and [60] bytes for the
// payload"; the fields below are the dwords the simulator's commands use.
type Command struct {
	Opcode Opcode
	CID    uint16 // command identifier
	PRP1   uint64 // data pointer 1: DMA target (host DRAM or peer BAR)
	PRP2   uint64 // data pointer 2
	CDW10  uint32
	CDW11  uint32
	CDW12  uint32
	CDW13  uint32
	CDW14  uint32
	CDW15  uint32
}

// Status is an NVMe completion status code (0 = success).
type Status uint16

// Completion status codes used by the simulator.
const (
	StatusSuccess       Status = 0x0
	StatusInvalidOpcode Status = 0x1
	StatusInvalidField  Status = 0x2
	StatusInternal      Status = 0x6
	// StatusAborted is the NVMe "Command Abort Requested" status, posted
	// when the host gives up on a command (deadline) or the controller
	// cancels it.
	StatusAborted       Status = 0x7
	StatusLBAOutOfRange Status = 0x80
	// StatusMediaError is the NVMe "Unrecovered Read Error" media status.
	StatusMediaError Status = 0x281
	// Morpheus-specific status codes (command-specific space).
	StatusNoInstance   Status = 0x1C0 // MREAD/MWRITE/MDEINIT for unknown instance ID
	StatusAppFault     Status = 0x1C1 // StorageApp trapped
	StatusSRAMOverflow Status = 0x1C2 // StorageApp exceeded D-SRAM working set
	StatusNoSlots      Status = 0x1C3 // MINIT with every execution slot occupied
)

// Err converts a status into an error (nil for success). The error wraps
// the status's typed sentinel (ErrMedia, ErrAppTrap, ...), so callers at
// any layer can classify it with errors.Is.
func (s Status) Err() error {
	if s == StatusSuccess {
		return nil
	}
	return fmt.Errorf("%w (status 0x%X)", s.sentinel(), uint16(s))
}

// Completion is one NVMe completion queue entry.
type Completion struct {
	Result uint32 // DW0: command-specific result (StorageApp return value)
	CID    uint16
	Status Status
}

// LBASize is the logical block size the simulated namespace exposes.
const LBASize = 4096

// ---- Morpheus command builders ------------------------------------------
//
// Field assignments for the four extension commands, mirroring §IV-A:
//
//	MINIT:   PRP1 = StorageApp code pointer, CDW10 = code length in bytes,
//	         CDW11 = instance ID, CDW12 = argument count,
//	         PRP2 = argument block pointer.
//	MREAD:   CDW10/11 = starting LBA, CDW12 = number of logical blocks - 1,
//	         CDW13 = instance ID, PRP1 = destination DMA address.
//	MWRITE:  same fields as MREAD, source DMA address in PRP1.
//	MDEINIT: CDW11 = instance ID; completion DW0 carries the StorageApp
//	         return value.

// BuildMInit constructs an MINIT command.
func BuildMInit(cid uint16, codePtr uint64, codeLen uint32, instance uint32, argc uint32, argPtr uint64) Command {
	return Command{Opcode: OpMInit, CID: cid, PRP1: codePtr, PRP2: argPtr,
		CDW10: codeLen, CDW11: instance, CDW12: argc}
}

// BuildMRead constructs an MREAD command covering nlb logical blocks
// starting at slba, processed by the given StorageApp instance, with
// results DMA'd to dst.
func BuildMRead(cid uint16, slba uint64, nlb uint32, instance uint32, dst uint64) Command {
	return Command{Opcode: OpMRead, CID: cid, PRP1: dst,
		CDW10: uint32(slba), CDW11: uint32(slba >> 32), CDW12: nlb - 1, CDW13: instance}
}

// BuildMWrite constructs an MWRITE command.
func BuildMWrite(cid uint16, slba uint64, nlb uint32, instance uint32, src uint64) Command {
	return Command{Opcode: OpMWrite, CID: cid, PRP1: src,
		CDW10: uint32(slba), CDW11: uint32(slba >> 32), CDW12: nlb - 1, CDW13: instance}
}

// BuildMDeinit constructs an MDEINIT command.
func BuildMDeinit(cid uint16, instance uint32) Command {
	return Command{Opcode: OpMDeinit, CID: cid, CDW11: instance}
}

// BuildRead constructs a conventional READ command.
func BuildRead(cid uint16, slba uint64, nlb uint32, dst uint64) Command {
	return Command{Opcode: OpRead, CID: cid, PRP1: dst,
		CDW10: uint32(slba), CDW11: uint32(slba >> 32), CDW12: nlb - 1}
}

// BuildWrite constructs a conventional WRITE command.
func BuildWrite(cid uint16, slba uint64, nlb uint32, src uint64) Command {
	return Command{Opcode: OpWrite, CID: cid, PRP1: src,
		CDW10: uint32(slba), CDW11: uint32(slba >> 32), CDW12: nlb - 1}
}

// SLBA extracts the starting LBA of a READ/WRITE/MREAD/MWRITE command.
func (c *Command) SLBA() uint64 { return uint64(c.CDW11)<<32 | uint64(c.CDW10) }

// NLB extracts the number of logical blocks of an I/O command.
func (c *Command) NLB() uint32 { return c.CDW12 + 1 }

// Instance extracts the StorageApp instance ID of a Morpheus command.
func (c *Command) Instance() uint32 {
	if c.Opcode == OpMRead || c.Opcode == OpMWrite {
		return c.CDW13
	}
	return c.CDW11
}
