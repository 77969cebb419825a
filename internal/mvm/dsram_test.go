package mvm

import (
	"fmt"
	"testing"
)

// runDSRAM runs src to completion and returns the VM.
func runDSRAM(t *testing.T, src string, cfg Config) *VM {
	t.Helper()
	vm, err := New(mustAssemble(t, src), cfg, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Feed(nil, true); err != nil {
		t.Fatal(err)
	}
	vm.Run()
	return vm
}

// TestLazyDSRAMBounds pins the lazily allocated D-SRAM's address checks to
// cfg.DSRAMSize: every width reaches the last byte, one byte further
// traps, and so does a negative address, with the messages the eagerly
// allocated D-SRAM produced.
func TestLazyDSRAMBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DSRAMSize = 256
	widths := []struct {
		ld, st string
		size   int
		val    int64
	}{
		{"ld8", "st8", 1, 200},
		{"ld32", "st32", 4, -123456},
		{"ld64", "st64", 8, -1 << 40},
	}
	// The subtests keep the interp/ prefix of their stable names.
	for _, w := range widths {
		last := cfg.DSRAMSize - w.size
		t.Run("interp/"+w.ld, func(t *testing.T) {
			vm := runDSRAM(t, fmt.Sprintf("push %d\npush %d\n%s\npush %d\n%s\nhalt", last, w.val, w.st, last, w.ld), cfg)
			if vm.State() != StateHalted || vm.ReturnValue() != w.val {
				t.Fatalf("%s/%s at %d: state %v ret %d err %v, want %d", w.st, w.ld, last, vm.State(), vm.ReturnValue(), vm.TrapErr(), w.val)
			}
			if len(vm.sram) != cfg.DSRAMSize {
				t.Fatalf("D-SRAM is %d bytes after a store, want %d", len(vm.sram), cfg.DSRAMSize)
			}
			for _, addr := range []int{last + 1, -1} {
				vm = runDSRAM(t, fmt.Sprintf("push %d\n%s\nhalt", addr, w.ld), cfg)
				want := fmt.Sprintf("mvm: D-SRAM load out of range: addr=%d size=%d", addr, w.size)
				if vm.State() != StateTrapped || vm.TrapErr().Error() != want {
					t.Fatalf("%s at %d: state %v err %v, want trap %q", w.ld, addr, vm.State(), vm.TrapErr(), want)
				}
				vm = runDSRAM(t, fmt.Sprintf("push %d\npush 1\n%s\nhalt", addr, w.st), cfg)
				want = fmt.Sprintf("mvm: D-SRAM store out of range: addr=%d size=%d", addr, w.size)
				if vm.State() != StateTrapped || vm.TrapErr().Error() != want {
					t.Fatalf("%s at %d: state %v err %v, want trap %q", w.st, addr, vm.State(), vm.TrapErr(), want)
				}
			}
		})
	}
}

// TestDSRAMUnallocatedWithoutMemOps: a program that never issues ld/st
// never pays for the D-SRAM.
func TestDSRAMUnallocatedWithoutMemOps(t *testing.T) {
	src := `
loop:
	sys scan_int
	store 1
	store 0
	load 1
	jz done
	load 0
	sys emit_i32
	jmp loop
done:
	halt
`
	vm, err := New(mustAssemble(t, src), DefaultConfig(), DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Feed([]byte("1 2 3\n"), true); err != nil {
		t.Fatal(err)
	}
	if st := vm.Run(); st != StateHalted {
		t.Fatalf("state %v (%v)", st, vm.TrapErr())
	}
	if vm.sram != nil {
		t.Fatalf("D-SRAM allocated (%d bytes) by a program with no ld/st", len(vm.sram))
	}
}

// TestDiscardOutputKeepsCapacity: DiscardOutput empties the buffer in
// place and resumes a VM paused on a full buffer.
func TestDiscardOutputKeepsCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OutputFlushThreshold = 8
	vm, err := New(mustAssemble(t, "loop:\n\tsys eof\n\tjnz done\n\tsys read_byte\n\tsys emit_byte\n\tjmp loop\ndone:\n\thalt"), cfg, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Feed([]byte("abcdefghijklmnopqrstuvwxyz"), true); err != nil {
		t.Fatal(err)
	}
	pauses := 0
	for st := vm.Run(); st != StateHalted; st = vm.Run() {
		if st != StateOutputFull {
			t.Fatalf("state %v (%v)", st, vm.TrapErr())
		}
		pauses++
		c := cap(vm.output)
		vm.DiscardOutput()
		if len(vm.output) != 0 || cap(vm.output) != c || vm.State() != StateRunnable {
			t.Fatalf("after DiscardOutput: len %d cap %d (was %d) state %v", len(vm.output), cap(vm.output), c, vm.State())
		}
	}
	if pauses != 3 || vm.Consumed() != 26 {
		t.Fatalf("pauses %d consumed %d, want 3 and 26", pauses, vm.Consumed())
	}
}
