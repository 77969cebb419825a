package mvm_test

import (
	"runtime"
	"testing"

	"morpheus/internal/apps"
	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
)

// TestNewGrepAllocationBound guards the per-MINIT cost of mvm.New for the
// grep StorageApp, which never addresses D-SRAM: it must stay far below the
// 512 KiB an eagerly zeroed D-SRAM would cost. The first New on a Program
// compiles its closure table; later ones reuse it and must allocate under
// half as much as the first.
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
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := new(mvm.Program)
	if err := fresh.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	newFresh := func() {
		if _, err := mvm.New(fresh, cfg, cost); err != nil {
			t.Fatal(err)
		}
	}
	first, second := allocated(newFresh), allocated(newFresh)
	if second*2 > first {
		t.Fatalf("second mvm.New on one Program allocates %d B, first %d B: want under half", second, first)
	}
	t.Logf("mvm.New on one Program: first %d B, second %d B", first, second)

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
