package apps

import (
	"bytes"
	"testing"

	"morpheus/internal/core"
	"morpheus/internal/mvm"
	"morpheus/internal/units"
)

// testScale keeps inputs small: ~1/2048 of the Table I sizes.
const testScale = 1.0 / 2048

func newSystem(t *testing.T, withGPU bool, mutate func(*core.SystemConfig)) *core.System {
	t.Helper()
	cfg := core.DefaultSystemConfig()
	cfg.WithGPU = withGPU
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSuiteInventory(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("suite has %d applications, want 10 (Table I)", len(all))
	}
	names := map[string]bool{}
	gpuApps := 0
	for _, a := range all {
		if names[a.Name] {
			t.Fatalf("duplicate app %q", a.Name)
		}
		names[a.Name] = true
		if a.PaperInputSize <= 0 || a.Threads <= 0 {
			t.Fatalf("%s: bad sizing", a.Name)
		}
		if a.UsesGPU {
			gpuApps++
			if a.Parallel != "CUDA" {
				t.Fatalf("%s: GPU app must be CUDA", a.Name)
			}
		}
		if a.StorageSrc == "" || len(a.Fields) == 0 {
			t.Fatalf("%s: missing StorageApp or field layout", a.Name)
		}
	}
	if gpuApps != 6 {
		t.Fatalf("GPU apps = %d, want 6 (Rodinia)", gpuApps)
	}
	for _, want := range []string{"pagerank", "grep", "bfs", "gaussian", "hybridsort", "kmeans", "lud", "nn", "spmv"} {
		if !names[want] {
			t.Fatalf("missing Table I application %q", want)
		}
	}
	if _, err := ByName("pagerank"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown app must error")
	}
}

// TestStorageAppMatchesHostParser interprets every application's MorphC
// StorageApp on the MVM (exact mode) over a real generated input and
// requires bit-identical output to the host parser — the central
// correctness claim ("StorageApps create exactly the same data structures
// that the computational aspects of these applications consume").
func TestStorageAppMatchesHostParser(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			shard := app.Gen(24*units.KiB, 1, 99)[0]
			prog, err := app.StorageApp().Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Feed(shard, true); err != nil {
				t.Fatal(err)
			}
			var vmOut []byte
			for {
				st := vm.Run()
				if st == mvm.StateOutputFull || st == mvm.StateFlushRequested {
					vmOut = append(vmOut, vm.DrainOutput()...)
					continue
				}
				if st == mvm.StateHalted {
					vmOut = append(vmOut, vm.DrainOutput()...)
					break
				}
				t.Fatalf("vm state %v: %v", st, vm.TrapErr())
			}
			hostOut := app.HostParser()(shard, true)
			if !bytes.Equal(vmOut, hostOut) {
				t.Fatalf("StorageApp output (%d bytes) != host parser output (%d bytes)", len(vmOut), len(hostOut))
			}
			// And the native continuation equals both.
			nativeOut, err := app.StorageApp().Native(nil, shard, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(nativeOut, hostOut) {
				t.Fatalf("native continuation diverges from host parser")
			}
		})
	}
}

func TestBaselineVsMorpheusObjects(t *testing.T) {
	for _, name := range []string{"pagerank", "spmv", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			app, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sysB := newSystem(t, app.UsesGPU, nil)
			filesB, _, err := Stage(sysB, app, testScale, 7)
			if err != nil {
				t.Fatal(err)
			}
			sysB.ResetTimers()
			base, err := Run(sysB, app, filesB, ModeBaseline)
			if err != nil {
				t.Fatal(err)
			}

			sysM := newSystem(t, app.UsesGPU, nil)
			filesM, _, err := Stage(sysM, app, testScale, 7)
			if err != nil {
				t.Fatal(err)
			}
			sysM.ResetTimers()
			morph, err := Run(sysM, app, filesM, ModeMorpheus)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyObjects(base, morph); err != nil {
				t.Fatal(err)
			}
			if base.RawBytes != morph.RawBytes {
				t.Fatalf("raw bytes differ: %v vs %v", base.RawBytes, morph.RawBytes)
			}
			// SpMV's gain is ~1.07x at paper scale (softfloat), which fixed
			// per-invocation costs erase at this micro test scale — the
			// speedup shape is asserted at bench scale in internal/exp.
			if name != "spmv" && morph.Deser >= base.Deser {
				t.Errorf("%s: morpheus deser %v not faster than baseline %v", name, morph.Deser, base.Deser)
			}
		})
	}
}

func TestGPUAppPhases(t *testing.T) {
	app, err := ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, true, nil)
	files, _, err := Stage(sys, app, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	rep, err := Run(sys, app, files, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUKernel <= 0 || rep.GPUCopy <= 0 {
		t.Fatalf("GPU phases missing: copy=%v kernel=%v", rep.GPUCopy, rep.GPUKernel)
	}
	if rep.Total != rep.Deser+rep.OtherCPU+rep.GPUCopy+rep.GPUKernel {
		t.Fatalf("phases don't sum: %v vs %v", rep.Total, rep.Deser+rep.OtherCPU+rep.GPUCopy+rep.GPUKernel)
	}
	if f := rep.DeserFraction(); f <= 0 || f >= 1 {
		t.Fatalf("deser fraction = %v", f)
	}
}

func TestP2PSkipsCopy(t *testing.T) {
	app, err := ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, true, nil)
	files, _, err := Stage(sys, app, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	rep, err := Run(sys, app, files, ModeMorpheusP2P)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GPUCopy != 0 {
		t.Fatalf("P2P run still copied: %v", rep.GPUCopy)
	}
}

func TestP2PRejectedForCPUApp(t *testing.T) {
	app, err := ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, true, nil)
	files, _, err := Stage(sys, app, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	if _, err := Run(sys, app, files, ModeMorpheusP2P); err == nil {
		t.Fatal("P2P must be rejected for non-GPU applications")
	}
}

func TestGPUAppNeedsGPU(t *testing.T) {
	app, err := ByName("lud")
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, false, nil)
	files, _, err := Stage(sys, app, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, app, files, ModeBaseline); err == nil {
		t.Fatal("CUDA app without a GPU must fail")
	}
}

func TestStageShardsPerThread(t *testing.T) {
	app, err := ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t, false, nil)
	files, shards, err := Stage(sys, app, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != app.Threads || len(shards) != app.Threads {
		t.Fatalf("shards = %d, want %d", len(files), app.Threads)
	}
	for i, f := range files {
		if f.Size != units.Bytes(len(shards[i])) {
			t.Fatalf("file %d size mismatch", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeBaseline.String() != "baseline" || ModeMorpheus.String() != "morpheus" ||
		ModeMorpheusP2P.String() != "morpheus+p2p" {
		t.Fatal("mode names")
	}
}
