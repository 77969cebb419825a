// Differentials for the MVM interpreter at the application level: every
// Table I StorageApp, compiled from its real MorphC source, streamed
// through the VM exactly as the SSD firmware streams it (windowed Feed,
// Run to quiescence, drain on every pause). The window size and the
// optimization level must not change the objects an app produces.
// Package-level edge cases (traps, step limits, random schedules) live in
// internal/mvm/engine_test.go.
package morpheus

import (
	"bytes"
	"fmt"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/units"
)

// vmRun is what a window size or optimization level must not change.
type vmRun struct {
	out        []byte
	floatOps   int64
	intScans   int64
	floatScans int64
	consumed   int64
	ret        int64
}

// streamVM drives one VM over input the way ssd.instance.interpretChunk
// does: feed a window, run to quiescence draining as output fills, feed
// the next window when asked. chunk <= 0 feeds everything up front.
func streamVM(tb testing.TB, prog *mvm.Program, input []byte, chunk int) vmRun {
	tb.Helper()
	vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
	if err != nil {
		tb.Fatalf("mvm.New: %v", err)
	}
	var r vmRun
	pos, final := 0, false
	if chunk <= 0 {
		chunk = len(input)
	}
	for range 50_000_000 {
		switch st := vm.Run(); st {
		case mvm.StateNeedInput:
			if final {
				tb.Fatal("need-input after the final window")
			}
			n := min(chunk, len(input)-pos)
			pos += n
			final = pos == len(input)
			if err := vm.Feed(input[pos-n:pos], final); err != nil {
				tb.Fatalf("feed: %v", err)
			}
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			r.out = append(r.out, vm.DrainOutput()...)
		case mvm.StateHalted:
			r.out = append(r.out, vm.DrainOutput()...)
			r.ret = vm.ReturnValue()
			r.floatOps = vm.FloatOps()
			r.intScans, r.floatScans = vm.ScanCounts()
			r.consumed = vm.Consumed()
			return r
		case mvm.StateTrapped:
			tb.Fatalf("app trapped: %v", vm.TrapErr())
		default:
			tb.Fatalf("unexpected state %v", st)
		}
	}
	tb.Fatal("iteration cap exceeded")
	return r
}

// diffVMRuns fails the test on the first field where two runs disagree.
func diffVMRuns(t *testing.T, want, got vmRun) {
	t.Helper()
	switch {
	case !bytes.Equal(want.out, got.out):
		t.Fatalf("output bytes diverge: %d bytes vs %d", len(want.out), len(got.out))
	case want.floatOps != got.floatOps:
		t.Fatalf("float ops diverge: %d vs %d", want.floatOps, got.floatOps)
	case want.intScans != got.intScans || want.floatScans != got.floatScans:
		t.Fatalf("scan counts diverge: %d/%d vs %d/%d",
			want.intScans, want.floatScans, got.intScans, got.floatScans)
	case want.consumed != got.consumed:
		t.Fatalf("consumed diverges: %d vs %d", want.consumed, got.consumed)
	case want.ret != got.ret:
		t.Fatalf("return value diverges: %d vs %d", want.ret, got.ret)
	}
}

// TestEngineDifferentialApps streams every Table I StorageApp across
// seeds and window sizes: each windowed run must match the whole-input
// run, which must consume the whole input and emit objects.
func TestEngineDifferentialApps(t *testing.T) {
	seeds := []int64{20160618, 7, 424242}
	chunks := []int{0, 512, 4096}
	for _, app := range apps.All() {
		prog, err := morphc.Compile(app.StorageSrc, app.Entry)
		if err != nil {
			t.Fatalf("%s: compile: %v", app.Name, err)
		}
		for _, seed := range seeds {
			input := app.Gen(24*units.KiB, 1, seed)[0]
			whole := streamVM(t, prog, input, 0)
			for _, chunk := range chunks {
				t.Run(fmt.Sprintf("%s/seed%d/chunk%d", app.Name, seed, chunk), func(t *testing.T) {
					if len(whole.out) == 0 || whole.consumed != int64(len(input)) {
						t.Fatalf("whole-input run emitted %d bytes, consumed %d of %d",
							len(whole.out), whole.consumed, len(input))
					}
					diffVMRuns(t, whole, streamVM(t, prog, input, chunk))
				})
			}
		}
	}
}

// TestEngineDifferentialOptLevels: the optimizer changes the instruction
// stream, never the objects it produces.
func TestEngineDifferentialOptLevels(t *testing.T) {
	for _, app := range apps.All() {
		var runs []vmRun
		for _, lvl := range []morphc.OptLevel{morphc.O0, morphc.O1} {
			prog, err := morphc.CompileWithOptions(app.StorageSrc, app.Entry, lvl)
			if err != nil {
				t.Fatalf("%s: compile O%d: %v", app.Name, lvl, err)
			}
			runs = append(runs, streamVM(t, prog, app.Gen(8*units.KiB, 1, 99)[0], 1024))
		}
		diffVMRuns(t, runs[0], runs[1])
	}
}
