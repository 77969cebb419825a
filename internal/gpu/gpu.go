// Package gpu models the discrete accelerator of the testbed: an NVIDIA
// K20-class card (2496 CUDA cores, 5 GB GDDR5) attached to the PCIe fabric
// over an x16 link. Only the behaviours the evaluation observes are
// modeled: device-memory capacity, host<->device and peer<->device copy
// time, BAR exposure for GPUDirect-style peer access, and a kernel cost
// model parameterized per benchmark application.
package gpu

import (
	"fmt"

	"morpheus/internal/pcie"
	"morpheus/internal/sim"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Config describes the accelerator.
type Config struct {
	Name       string
	CUDACores  int
	CoreClock  units.Frequency
	MemSize    units.Bytes
	MemBW      units.Bandwidth // GDDR5 device-memory bandwidth
	LinkBW     units.Bandwidth // PCIe link, per direction
	LaunchCost units.Duration  // kernel-launch overhead
	CopySetup  units.Duration  // cudaMemcpy setup overhead
	// StagingBW limits host-to-device copies from pageable memory (the
	// driver stages through a pinned bounce buffer; ~3 GB/s on the
	// paper-era platforms). Zero disables the staging model.
	StagingBW    units.Bandwidth
	BARSupported bool // DirectGMA / GPUDirect capability
}

// DefaultConfig matches the paper's K20.
func DefaultConfig() Config {
	return Config{
		Name:         "K20",
		CUDACores:    2496,
		CoreClock:    706 * units.MHz,
		MemSize:      5 * units.GiB,
		MemBW:        208 * units.GBps,
		LinkBW:       pcie.Gen3x16,
		LaunchCost:   8 * units.Microsecond,
		CopySetup:    10 * units.Microsecond,
		StagingBW:    3 * units.GBps,
		BARSupported: true,
	}
}

// EndpointName is the GPU's name on the PCIe fabric.
const EndpointName = "gpu"

// BARBase is where the GPU device-memory BAR is mapped when peer access is
// enabled.
const BARBase pcie.Addr = 0x80_0000_0000

// GPU is the simulated accelerator.
type GPU struct {
	cfg    Config
	fabric *pcie.Fabric
	devMem *sim.Pipe // device-memory bandwidth behind the BAR
	sms    *sim.Resource

	barWindow *pcie.Window
	allocNext pcie.Addr
	allocated units.Bytes

	kernelsLaunched int64
	kernelTime      units.Duration

	tracer *trace.Tracer
}

// Trace names of kernel spans and their detail: the kernel's interned
// name and its element count.
var (
	smsTrack   = trace.Intern("gpu.sms")
	kernelName = trace.Intern("kernel")
	kernelKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("%s elements=%d", trace.Name(a[0]), a[1])
	})
)

func kernelDetail(name string, elements int64) trace.Detail {
	return trace.Detail{Kind: kernelKind, Args: [3]int64{int64(trace.Intern(name)), elements}}
}

// SetTracer attaches an event tracer (nil to disable).
func (g *GPU) SetTracer(t *trace.Tracer) { g.tracer = t }

// New attaches a GPU to the fabric.
func New(cfg Config, fabric *pcie.Fabric) *GPU {
	g := &GPU{
		cfg:    cfg,
		fabric: fabric,
		devMem: sim.NewPipe("gpu.devmem", 0, cfg.MemBW),
		sms:    sim.NewResource("gpu.sms"),
	}
	fabric.Attach(EndpointName, cfg.LinkBW, 300*units.Nanosecond)
	return g
}

// Config returns the GPU configuration.
func (g *GPU) Config() Config { return g.cfg }

// EnablePeerBAR programs the device memory into the PCIe switch via the
// base address registers, as AMD DirectGMA / NVIDIA GPUDirect do. This is
// the GPU half of NVMe-P2P (§IV-C). It is idempotent.
func (g *GPU) EnablePeerBAR() error {
	if !g.cfg.BARSupported {
		return fmt.Errorf("gpu: %s does not support peer BAR mapping", g.cfg.Name)
	}
	if g.barWindow != nil {
		return nil
	}
	w, err := g.fabric.MapWindow(pcie.Window{
		Name:     "gpu-bar",
		Base:     BARBase,
		Size:     uint64(g.cfg.MemSize),
		Endpoint: EndpointName,
		Sink:     pcie.SinkFunc(g.deliverDevMem),
	})
	if err != nil {
		return err
	}
	g.barWindow = w
	if g.allocNext == 0 {
		g.allocNext = BARBase
	}
	return nil
}

// PeerBAREnabled reports whether the BAR window is currently mapped.
func (g *GPU) PeerBAREnabled() bool { return g.barWindow != nil }

// DisablePeerBAR removes the BAR window.
func (g *GPU) DisablePeerBAR() {
	if g.barWindow != nil {
		g.fabric.UnmapWindow("gpu-bar")
		g.barWindow = nil
	}
}

func (g *GPU) deliverDevMem(ready units.Time, n units.Bytes) units.Time {
	_, end := g.devMem.Transfer(ready, n)
	return end
}

// Alloc reserves device memory and returns its BAR-relative address (the
// address is meaningful on the fabric only while the BAR is mapped, but
// allocation itself does not require peer access).
func (g *GPU) Alloc(size units.Bytes) (pcie.Addr, error) {
	if g.allocated+size > g.cfg.MemSize {
		return 0, fmt.Errorf("gpu: out of device memory (%v of %v used)", g.allocated, g.cfg.MemSize)
	}
	if g.allocNext == 0 {
		g.allocNext = BARBase
	}
	a := g.allocNext
	g.allocNext += pcie.Addr(size)
	g.allocated += size
	return a, nil
}

// FreeAll resets the device-memory allocator between runs.
func (g *GPU) FreeAll() {
	g.allocNext = BARBase
	g.allocated = 0
}

// CopyHostToDevice models cudaMemcpyHostToDevice of n bytes starting from
// host DRAM: host memory read, host upstream link, GPU downstream link,
// device-memory write.
func (g *GPU) CopyHostToDevice(ready units.Time, src pcie.Addr, n units.Bytes) (units.Time, error) {
	ready = ready.Add(g.cfg.CopySetup)
	if g.cfg.StagingBW > 0 {
		// Pageable source: the driver memcpys through a pinned bounce
		// buffer before the DMA can start.
		ready = ready.Add(g.cfg.StagingBW.TimeFor(n))
	}
	return g.fabric.ReadFrom(ready, EndpointName, src, n)
}

// CopyDeviceToHost models cudaMemcpyDeviceToHost.
func (g *GPU) CopyDeviceToHost(ready units.Time, dst pcie.Addr, n units.Bytes) (units.Time, error) {
	ready = ready.Add(g.cfg.CopySetup)
	_, t := g.devMem.Transfer(ready, n)
	return g.fabric.WriteTo(t, EndpointName, dst, n)
}

// KernelSpec is the analytic cost of one kernel invocation: a fixed
// per-element instruction count executed across the CUDA cores, bounded by
// device-memory bandwidth.
type KernelSpec struct {
	Name            string
	InstrPerElement float64 // dynamic instructions per data element
	BytesPerElement units.Bytes
	Elements        int64
	// Efficiency is the achieved fraction of peak ALU throughput
	// (divergence, occupancy limits).
	Efficiency float64
}

// RunKernel executes a kernel, occupying the SMs, and returns the
// completion time.
func (g *GPU) RunKernel(ready units.Time, spec KernelSpec) units.Time {
	eff := spec.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 0.5
	}
	peakIPS := float64(g.cfg.CUDACores) * float64(g.cfg.CoreClock) * eff
	computeTime := units.DurationOf(spec.InstrPerElement * float64(spec.Elements) / peakIPS)
	memTime := g.cfg.MemBW.TimeFor(units.Bytes(spec.Elements) * spec.BytesPerElement)
	d := computeTime
	if memTime > d {
		d = memTime
	}
	d += g.cfg.LaunchCost
	start, end := g.sms.Acquire(ready, d)
	g.kernelsLaunched++
	g.kernelTime += d
	if g.tracer != nil {
		g.tracer.Span(smsTrack, kernelName, kernelDetail(spec.Name, spec.Elements), 0, start, end)
	}
	return end
}

// KernelStats reports launches and cumulative kernel time.
func (g *GPU) KernelStats() (launches int64, busy units.Duration) {
	return g.kernelsLaunched, g.kernelTime
}

// ResetTimers clears device timing state and kernel statistics while
// preserving allocations and the BAR mapping — the GPU's part of the
// setup/measurement boundary.
func (g *GPU) ResetTimers() {
	g.devMem.Reset()
	g.sms.Reset()
	g.kernelsLaunched = 0
	g.kernelTime = 0
}
