package gpu

import (
	"testing"

	"morpheus/internal/pcie"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

func newGPU(t *testing.T) (*GPU, *pcie.Fabric, *stats.Set) {
	t.Helper()
	reg := stats.NewRegistry()
	fabric := pcie.NewFabric(reg, "host")
	fabric.Attach("host", pcie.Gen3x16, 0)
	fabric.MapWindow(pcie.Window{Name: "dram", Base: 0, Size: 1 << 32, Endpoint: "host", Sink: pcie.NullSink})
	return New(DefaultConfig(), fabric), fabric, reg.Counters()
}

func TestAllocAndCapacity(t *testing.T) {
	g, _, _ := newGPU(t)
	a1, err := g.Alloc(1 * units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := g.Alloc(1 * units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("allocations must not alias")
	}
	if _, err := g.Alloc(4 * units.GiB); err == nil {
		t.Fatal("over-allocation must fail (5 GiB card)")
	}
	g.FreeAll()
	if _, err := g.Alloc(4 * units.GiB); err != nil {
		t.Fatalf("after FreeAll: %v", err)
	}
}

func TestPeerBARLifecycle(t *testing.T) {
	g, fabric, _ := newGPU(t)
	if g.PeerBAREnabled() {
		t.Fatal("BAR must start unmapped")
	}
	if err := g.EnablePeerBAR(); err != nil {
		t.Fatal(err)
	}
	if err := g.EnablePeerBAR(); err != nil {
		t.Fatalf("enable must be idempotent: %v", err)
	}
	if _, err := fabric.Resolve(BARBase + 10); err != nil {
		t.Fatal("BAR window must resolve after enable")
	}
	g.DisablePeerBAR()
	if _, err := fabric.Resolve(BARBase + 10); err == nil {
		t.Fatal("BAR window must vanish after disable")
	}
}

func TestBARUnsupported(t *testing.T) {
	fabric := pcie.NewFabric(stats.NewRegistry(), "host")
	cfg := DefaultConfig()
	cfg.BARSupported = false
	g := New(cfg, fabric)
	if err := g.EnablePeerBAR(); err == nil {
		t.Fatal("BAR-incapable card must refuse peer mapping")
	}
}

func TestCopyTiming(t *testing.T) {
	g, _, _ := newGPU(t)
	n := 64 * units.MiB
	end, err := g.CopyHostToDevice(0, 0x1000, n)
	if err != nil {
		t.Fatal(err)
	}
	// Staging at 3 GB/s dominates: 64 MiB ≈ 22 ms.
	min := g.Config().StagingBW.TimeFor(n)
	if units.Duration(end) < min {
		t.Fatalf("H2D %v faster than the staging bound %v", end, min)
	}
	end2, err := g.CopyDeviceToHost(0, 0x1000, n)
	if err != nil {
		t.Fatal(err)
	}
	if end2 <= 0 {
		t.Fatal("D2H must take time")
	}
}

func TestKernelComputeVsMemoryBound(t *testing.T) {
	g, _, _ := newGPU(t)
	// Compute-bound: many instructions per element.
	e1 := g.RunKernel(0, KernelSpec{InstrPerElement: 1e4, BytesPerElement: 4, Elements: 1e6, Efficiency: 0.5})
	// Memory-bound: one instruction per element, huge data.
	e2 := g.RunKernel(e1, KernelSpec{InstrPerElement: 1, BytesPerElement: 4, Elements: 1e6, Efficiency: 0.5})
	d1 := units.Duration(e1)
	d2 := units.Duration(e2 - e1)
	if d1 <= d2 {
		t.Fatalf("compute-bound kernel (%v) should dominate memory-bound (%v)", d1, d2)
	}
	memFloor := g.Config().MemBW.TimeFor(4e6)
	if d2 < memFloor {
		t.Fatalf("memory-bound kernel %v under the bandwidth floor %v", d2, memFloor)
	}
	launches, busy := g.KernelStats()
	if launches != 2 || busy <= 0 {
		t.Fatalf("stats = %d %v", launches, busy)
	}
}

func TestKernelsSerializeOnSMs(t *testing.T) {
	g, _, _ := newGPU(t)
	spec := KernelSpec{InstrPerElement: 1e3, BytesPerElement: 4, Elements: 1e6, Efficiency: 0.5}
	e1 := g.RunKernel(0, spec)
	e2 := g.RunKernel(0, spec) // same ready time: must queue
	if e2 <= e1 {
		t.Fatalf("second kernel must wait for the SMs: %v vs %v", e2, e1)
	}
}
