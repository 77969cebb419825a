package mvm_test

import (
	"runtime"
	"strings"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
)

// TestNewGrepAllocationBound guards the per-MINIT cost of mvm.New for the
// grep StorageApp, which never addresses D-SRAM: it must stay far below the
// 512 KiB an eagerly zeroed D-SRAM would cost.
func TestNewGrepAllocationBound(t *testing.T) {
	app, err := apps.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := morphc.Compile(app.StorageSrc, app.Entry)
	if err != nil {
		t.Fatal(err)
	}
	cfg, cost := mvm.DefaultConfig(), mvm.DefaultCostModel()
	newVM := func() {
		if _, err := mvm.New(prog, cfg, cost); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, newVM)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		newVM()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const limit = 64 << 10
	if perRun >= limit {
		t.Fatalf("mvm.New allocates %d B (%.0f allocs) per call, want < %d", perRun, allocs, limit)
	}
	t.Logf("mvm.New: %d B in %.0f allocs per call", perRun, allocs)
}

// TestScanWindowAllocatesNothing: ms_scanf parses well-formed tokens
// without a per-token string, so scanning a fed window allocates nothing
// once the VM's buffers have grown.
func TestScanWindowAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ builtin, token string }{
		{"scan_int", "-1234567890123 "},
		{"scan_float", "-12345.678e-3 "},
	} {
		t.Run(c.builtin, func(t *testing.T) {
			prog, err := mvm.Assemble("loop:\n\tsys " + c.builtin + "\n\tjz done\n\tpop\n\tjmp loop\ndone:\n\thalt")
			if err != nil {
				t.Fatal(err)
			}
			vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			window := []byte(strings.Repeat(c.token, 64))
			scanWindow := func() {
				if err := vm.Feed(window, false); err != nil {
					t.Fatal(err)
				}
				if st := vm.Run(); st != mvm.StateNeedInput {
					t.Fatalf("state %v (%v)", st, vm.TrapErr())
				}
			}
			scanWindow()
			if allocs := testing.AllocsPerRun(20, scanWindow); allocs != 0 {
				t.Fatalf("scanning a %d-token window allocates %.1f times", 64, allocs)
			}
			if ints, floats := vm.ScanCounts(); ints+floats != 64*22 {
				t.Fatalf("scanned %d+%d tokens, want %d", ints, floats, 64*22)
			}
		})
	}
}
