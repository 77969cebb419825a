package exp

import (
	"strings"
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

func TestFig2Shape(t *testing.T) {
	r, err := RunFig2(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Deserialization dominates on average (paper: 64%).
	if r.AvgDeserFrac < 0.5 || r.AvgDeserFrac > 0.85 {
		t.Fatalf("average deser fraction = %.2f, want the paper's ~0.64 regime", r.AvgDeserFrac)
	}
	for _, row := range r.Rows {
		if row.DeserFrac <= 0.2 || row.DeserFrac >= 0.95 {
			t.Errorf("%s: deser fraction %.2f out of plausible range", row.App, row.DeserFrac)
		}
		sum := row.Deser + row.OtherCPU + row.GPUCopy + row.GPUKernel
		if sum != row.Total {
			t.Errorf("%s: phases sum to %v, total %v", row.App, sum, row.Total)
		}
	}
	if !strings.Contains(r.Table().String(), "Figure 2") {
		t.Error("table title missing")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := RunFig8(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Average speedup in the paper's regime, SpMV the clear minimum.
	if r.Avg < 1.3 || r.Avg > 2.1 {
		t.Fatalf("average deser speedup = %.2f, want ~1.66", r.Avg)
	}
	if r.SpMV > 1.3 {
		t.Fatalf("spmv speedup = %.2f — softfloat should cap it near 1.1", r.SpMV)
	}
	for _, row := range r.Rows {
		if row.App == "spmv" {
			continue
		}
		if row.Speedup < 1.1 {
			t.Errorf("%s: speedup %.2f — every integer app should gain", row.App, row.Speedup)
		}
		if row.Speedup > 2.8 {
			t.Errorf("%s: speedup %.2f implausibly high", row.App, row.Speedup)
		}
	}
	// SpMV must be the minimum bar, as in Figure 8.
	for _, row := range r.Rows {
		if row.App != "spmv" && row.Speedup < r.SpMV {
			t.Errorf("%s (%.2f) below spmv (%.2f): Figure 8 shape broken", row.App, row.Speedup, r.SpMV)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := RunFig9(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPowerSaving <= 0.01 || r.AvgPowerSaving > 0.2 {
		t.Fatalf("average power saving = %.3f, want the paper's ~7%% regime", r.AvgPowerSaving)
	}
	if r.AvgEnergySaving < 0.25 || r.AvgEnergySaving > 0.6 {
		t.Fatalf("average energy saving = %.3f, want ~42%%", r.AvgEnergySaving)
	}
	for _, row := range r.Rows {
		if row.NormPower >= 1.0 {
			t.Errorf("%s: morpheus power %.2f not below baseline", row.App, row.NormPower)
		}
		// SpMV's tiny speedup disappears at micro test scale (fixed
		// per-invocation costs), dragging its energy ratio to ~1; the
		// bench-scale run in EXPERIMENTS.md shows the paper's shape.
		if row.App != "spmv" && row.NormEnergy >= 1.0 {
			t.Errorf("%s: morpheus energy %.2f not below baseline", row.App, row.NormEnergy)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	o := testOptions()
	o.Scale = 1.0 / 256 // context-switch ratios need enough commands
	r, err := RunFig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgCountReduction < 0.75 {
		t.Fatalf("context-switch count reduction = %.2f, want the paper's ~97%% regime", r.AvgCountReduction)
	}
	if r.AvgFreqReduction < 0.6 {
		t.Fatalf("frequency reduction = %.2f", r.AvgFreqReduction)
	}
}

func TestTrafficShape(t *testing.T) {
	r, err := RunTraffic(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgPCIeReduction < 0.05 || r.AvgPCIeReduction > 0.45 {
		t.Fatalf("PCIe reduction = %.2f, want ~22%%", r.AvgPCIeReduction)
	}
	if r.AvgMemBusReduction < 0.4 || r.AvgMemBusReduction > 0.8 {
		t.Fatalf("membus reduction = %.2f, want ~58%%", r.AvgMemBusReduction)
	}
	for _, row := range r.Rows {
		if row.MorphPCIe >= row.BasePCIe {
			t.Errorf("%s: morpheus PCIe traffic not reduced", row.App)
		}
		if row.MorphMemBus >= row.BaseMemBus {
			t.Errorf("%s: morpheus memory-bus traffic not reduced", row.App)
		}
	}
}

func TestEndToEndShape(t *testing.T) {
	r, err := RunEndToEnd(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgSpeedup < 1.15 || r.AvgSpeedup > 1.6 {
		t.Fatalf("end-to-end speedup = %.2f, want ~1.32", r.AvgSpeedup)
	}
	if r.AvgSpeedupP2P < r.AvgSpeedup {
		t.Fatalf("P2P (%.2f) must not be slower than plain Morpheus (%.2f)", r.AvgSpeedupP2P, r.AvgSpeedup)
	}
	for _, row := range r.Rows {
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
