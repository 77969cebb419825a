package exp

import (
	"strings"
	"sync"
	"testing"

	"morpheus/internal/units"
)

// testOptions runs the experiments at 1/1024 of the paper's input sizes:
// fast enough for the test suite, large enough that fixed costs don't
// swamp the shapes. The default bench scale (1/256) reproduces the paper
// numbers more tightly; EXPERIMENTS.md records those.
func testOptions() Options {
	o := DefaultOptions()
	o.Scale = 1.0 / 1024
	return o
}

var (
	appsOnce sync.Once
	appsRes  *AppsResult
	appsErr  error
)

// appsShapeResult is the one RunApps run the per-figure shape tests
// share, at the default scale (1/256): Figure 10's context-switch ratios
// need that many commands.
func appsShapeResult(t *testing.T) *AppsResult {
	t.Helper()
	appsOnce.Do(func() {
		o := testOptions()
		o.Scale = 1.0 / 256
		appsRes, appsErr = RunApps(o)
	})
	if appsErr != nil {
		t.Fatal(appsErr)
	}
	return appsRes
}

func TestFig2Shape(t *testing.T) {
	r := appsShapeResult(t)
	if len(r.Fig2.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Fig2.Rows))
	}
	// Deserialization dominates on average (paper: 64%).
	if r.Fig2.AvgDeserFrac < 0.5 || r.Fig2.AvgDeserFrac > 0.85 {
		t.Errorf("average deser fraction = %.2f, want the paper's ~0.64 regime", r.Fig2.AvgDeserFrac)
	}
	for _, row := range r.Fig2.Rows {
		if row.DeserFrac <= 0.2 || row.DeserFrac >= 0.95 {
			t.Errorf("%s: deser fraction %.2f out of plausible range", row.App, row.DeserFrac)
		}
		sum := row.Deser + row.OtherCPU + row.GPUCopy + row.GPUKernel
		if sum != row.Total {
			t.Errorf("%s: phases sum to %v, total %v", row.App, sum, row.Total)
		}
	}
	if !strings.Contains(r.Fig2.Table().String(), "Figure 2") {
		t.Error("table title missing")
	}
}

func TestFig8Shape(t *testing.T) {
	r := appsShapeResult(t)
	// Average speedup in the paper's regime, SpMV the clear minimum.
	f8 := r.Fig8
	if f8.Avg < 1.3 || f8.Avg > 2.1 {
		t.Errorf("average deser speedup = %.2f, want ~1.66", f8.Avg)
	}
	if f8.SpMV > 1.3 {
		t.Errorf("spmv speedup = %.2f — softfloat should cap it near 1.1", f8.SpMV)
	}
	for _, row := range f8.Rows {
		if row.App == "spmv" {
			continue
		}
		if row.Speedup < 1.1 {
			t.Errorf("%s: speedup %.2f — every integer app should gain", row.App, row.Speedup)
		}
		if row.Speedup > 2.8 {
			t.Errorf("%s: speedup %.2f implausibly high", row.App, row.Speedup)
		}
		// SpMV must be the minimum bar, as in Figure 8.
		if row.Speedup < f8.SpMV {
			t.Errorf("%s (%.2f) below spmv (%.2f): Figure 8 shape broken", row.App, row.Speedup, f8.SpMV)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r := appsShapeResult(t)
	f9 := r.Fig9
	if f9.AvgPowerSaving <= 0.01 || f9.AvgPowerSaving > 0.2 {
		t.Errorf("average power saving = %.3f, want the paper's ~7%% regime", f9.AvgPowerSaving)
	}
	if f9.AvgEnergySaving < 0.25 || f9.AvgEnergySaving > 0.6 {
		t.Errorf("average energy saving = %.3f, want ~42%%", f9.AvgEnergySaving)
	}
	for _, row := range f9.Rows {
		if row.NormPower >= 1.0 {
			t.Errorf("%s: morpheus power %.2f not below baseline", row.App, row.NormPower)
		}
		// SpMV's tiny speedup disappears at small scales (fixed
		// per-invocation costs), dragging its energy ratio to ~1.
		if row.App != "spmv" && row.NormEnergy >= 1.0 {
			t.Errorf("%s: morpheus energy %.2f not below baseline", row.App, row.NormEnergy)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	r := appsShapeResult(t)
	if r.Fig10.AvgCountReduction < 0.75 {
		t.Errorf("context-switch count reduction = %.2f, want the paper's ~97%% regime", r.Fig10.AvgCountReduction)
	}
	if r.Fig10.AvgFreqReduction < 0.6 {
		t.Errorf("frequency reduction = %.2f", r.Fig10.AvgFreqReduction)
	}
}

func TestTrafficShape(t *testing.T) {
	r := appsShapeResult(t)
	tr := r.Traffic
	if tr.AvgPCIeReduction < 0.05 || tr.AvgPCIeReduction > 0.45 {
		t.Errorf("PCIe reduction = %.2f, want ~22%%", tr.AvgPCIeReduction)
	}
	if tr.AvgMemBusReduction < 0.4 || tr.AvgMemBusReduction > 0.8 {
		t.Errorf("membus reduction = %.2f, want ~58%%", tr.AvgMemBusReduction)
	}
	for _, row := range tr.Rows {
		if row.MorphPCIe >= row.BasePCIe {
			t.Errorf("%s: morpheus PCIe traffic not reduced", row.App)
		}
		if row.MorphMemBus >= row.BaseMemBus {
			t.Errorf("%s: morpheus memory-bus traffic not reduced", row.App)
		}
	}
}

func TestEndToEndShape(t *testing.T) {
	r := appsShapeResult(t)
	e2e := r.EndToEnd
	if e2e.AvgSpeedup < 1.15 || e2e.AvgSpeedup > 1.6 {
		t.Errorf("end-to-end speedup = %.2f, want ~1.32", e2e.AvgSpeedup)
	}
	if e2e.AvgSpeedupP2P < e2e.AvgSpeedup {
		t.Errorf("P2P (%.2f) must not be slower than plain Morpheus (%.2f)", e2e.AvgSpeedupP2P, e2e.AvgSpeedup)
	}
	for _, row := range e2e.Rows {
		if row.MorpheusP2P > 0 && row.MorpheusP2P > row.Morpheus {
			t.Errorf("%s: P2P total %v slower than non-P2P %v", row.App, row.MorpheusP2P, row.Morpheus)
		}
	}
}

func TestSlowHostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-host sweep runs the suite twice")
	}
	o := testOptions()
	r, err := RunSlowHost(o)
	if err != nil {
		t.Fatal(err)
	}
	// "The performance gain of using Morpheus-SSD is more significant in
	// slower servers."
	if r.Slow.AvgSpeedup <= r.Fast.AvgSpeedup {
		t.Fatalf("slow host speedup %.2f not above fast host %.2f", r.Slow.AvgSpeedup, r.Fast.AvgSpeedup)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 sweeps 10 apps x 3 media x 2 frequencies")
	}
	r, err := RunFig3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// NVMe beats HDD at 2.5 GHz, RAM drive adds nothing, and dropping to
	// 1.2 GHz erases the differences — deserialization is CPU-bound.
	if r.NVMeOverHDD25 < 1.15 {
		t.Fatalf("NVMe/HDD at 2.5GHz = %.2f, want a clear win (~1.5)", r.NVMeOverHDD25)
	}
	if r.RAMOverNVMe25 > 1.1 {
		t.Fatalf("RamDrive/NVMe = %.2f — the RAM drive should not help (CPU-bound)", r.RAMOverNVMe25)
	}
	if r.NVMeOverHDD12 > r.NVMeOverHDD25 {
		t.Fatalf("device differences must shrink at 1.2GHz: %.2f vs %.2f", r.NVMeOverHDD12, r.NVMeOverHDD25)
	}
	if r.Slowdown12over25 < 1.5 {
		t.Fatalf("2.5/1.2GHz ratio = %.2f — underclocking must hurt (CPU-bound)", r.Slowdown12over25)
	}
}

func TestProfileShape(t *testing.T) {
	r, err := RunProfile(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.StrippedSpeedup < 5 || r.StrippedSpeedup > 12 {
		t.Fatalf("stripped speedup = %.2f, want ~6.6", r.StrippedSpeedup)
	}
	if r.ConversionShare < 0.08 || r.ConversionShare > 0.25 {
		t.Fatalf("conversion share = %.2f, want ~15%%", r.ConversionShare)
	}
	if r.ConversionIPC != 1.2 {
		t.Fatalf("IPC = %v", r.ConversionIPC)
	}
}

func TestTable1(t *testing.T) {
	r, err := RunTable1(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		ratio := float64(row.ScaledInput) / (float64(row.PaperInput) * r.Scale)
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("%s: generated %v for a target of %v (ratio %.2f)",
				row.App, row.ScaledInput, units.Bytes(float64(row.PaperInput)*r.Scale), ratio)
		}
	}
}

func TestMultiprogShape(t *testing.T) {
	r, err := RunMultiprog(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The conventional model fights the co-runner for CPU; Morpheus
	// mostly idles the host. The gap widens with input size (fixed
	// scheduling-latency terms shrink), so assert the ordering, not a
	// ratio.
	if r.AvgMorphSlowdown >= r.AvgBaseSlowdown {
		t.Fatalf("morpheus slowdown %.2f not below baseline %.2f under load",
			r.AvgMorphSlowdown, r.AvgBaseSlowdown)
	}
	if r.AvgBaseSlowdown < 1.5 {
		t.Fatalf("baseline slowdown %.2f — a 50%% co-runner should bite", r.AvgBaseSlowdown)
	}
}

func TestSerializeShape(t *testing.T) {
	r, err := RunSerialize(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("MWRITE serialization must be bit-identical to host formatting")
	}
	if r.Speedup <= 1 {
		t.Fatalf("MWRITE speedup = %.2f — the offload should win the write direction too", r.Speedup)
	}
}

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps many configurations")
	}
	o := testOptions()
	r, err := RunAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range r.Tables() {
		if tbl == nil || len(tbl.Rows) == 0 {
			t.Fatal("empty ablation table")
		}
	}
}
