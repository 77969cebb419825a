// Package host models the host computer of the testbed in §VI-A: a
// quad-core Xeon with DVFS between 1.2 and 2.5 GHz, a DDR3 memory system,
// and an operating system whose overheads — system calls, context
// switches, file-system/POSIX bookkeeping — are exactly the costs the
// Morpheus model bypasses. It also provides the non-NVMe storage media of
// Figure 3 (hard drive and RAM drive).
//
// All operations are explicit-time: they take the caller's ready time and
// return a completion time, so independent application threads can be
// simulated on their own timelines while still contending for the shared
// CPU cores, memory bus, and OS.
package host

import (
	"fmt"

	"morpheus/internal/pcie"
	"morpheus/internal/sim"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// CPUConfig describes the host processor.
type CPUConfig struct {
	Cores int
	Freq  units.Frequency // current DVFS operating point
	// MaxFreq and MinFreq bound SetFrequency.
	MaxFreq, MinFreq units.Frequency
}

// DefaultCPU matches the paper's testbed: a quad-core Ivy Bridge EP Xeon
// at 2.5 GHz nominal, scaling down to 1.2 GHz.
func DefaultCPU() CPUConfig {
	return CPUConfig{Cores: 4, Freq: 2.5 * units.GHz, MaxFreq: 2.5 * units.GHz, MinFreq: 1.2 * units.GHz}
}

// OSCosts captures the kernel overheads charged by the model.
type OSCosts struct {
	Syscall       units.Duration // trap + return, fixed part
	ContextSwitch units.Duration // direct cost of one switch
	Interrupt     units.Duration // interrupt entry/dispatch
	PageFault     units.Duration // minor fault service
}

// DefaultOSCosts uses mid-2010s Linux magnitudes measured on comparable
// hardware (syscall ≈ 0.3 µs, context switch ≈ 3 µs including cache
// pollution, interrupt ≈ 2 µs).
func DefaultOSCosts() OSCosts {
	return OSCosts{
		Syscall:       300 * units.Nanosecond,
		ContextSwitch: 3 * units.Microsecond,
		Interrupt:     2 * units.Microsecond,
		PageFault:     1500 * units.Nanosecond,
	}
}

// MemConfig describes the host memory system.
type MemConfig struct {
	BusBandwidth units.Bandwidth // DDR3 channel bandwidth
	Latency      units.Duration  // first-word latency
	Size         units.Bytes
}

// DefaultMem matches the paper's DDR3 bus: "theoretically can offer up to
// 12.8 GB/sec bandwidth".
func DefaultMem() MemConfig {
	return MemConfig{BusBandwidth: 12.8 * units.GBps, Latency: 80 * units.Nanosecond, Size: 64 * units.GiB}
}

// Host is the host computer: CPU cores, OS, memory bus, and its DRAM
// window on the PCIe fabric.
type Host struct {
	CPU CPUConfig
	OS  OSCosts
	Mem MemConfig

	Cores    *sim.Pool
	MemBus   *sim.Pipe
	Counters *stats.Set
	// The counters the host writes, resolved once from Counters.
	memBus, syscalls, ctxSwitches, pageFaults stats.Counter

	fabric     *pcie.Fabric
	dramWindow *pcie.Window
	allocNext  pcie.Addr
	pinned     map[pcie.Addr]units.Bytes
}

// EndpointName is the fabric endpoint name of the root complex.
const EndpointName = "host"

// DRAMBase is where host DRAM lives in the fabric address map.
const DRAMBase pcie.Addr = 0x0000_0000_0000

// New builds a host and registers its DRAM window on the fabric. Passing a
// nil fabric is allowed for experiments that never touch PCIe (Figure 3's
// RAM-drive runs).
func New(cpu CPUConfig, osCosts OSCosts, mem MemConfig, counters *stats.Set, fabric *pcie.Fabric) (*Host, error) {
	h := &Host{
		CPU:         cpu,
		OS:          osCosts,
		Mem:         mem,
		Cores:       sim.NewPool("cpu", cpu.Cores),
		MemBus:      sim.NewPipe("membus", mem.Latency, mem.BusBandwidth),
		Counters:    counters,
		memBus:      counters.Counter(stats.MemBusBytes),
		syscalls:    counters.Counter(stats.Syscalls),
		ctxSwitches: counters.Counter(stats.CtxSwitches),
		pageFaults:  counters.Counter(stats.PageFaults),
		pinned:      make(map[pcie.Addr]units.Bytes),
	}
	if fabric != nil {
		h.fabric = fabric
		fabric.Attach(EndpointName, pcie.Gen3x16, 200*units.Nanosecond)
		w, err := fabric.MapWindow(pcie.Window{
			Name:     "host-dram",
			Base:     DRAMBase,
			Size:     uint64(mem.Size),
			Endpoint: EndpointName,
			Sink:     pcie.SinkFunc(h.deliverDRAM),
		})
		if err != nil {
			return nil, err
		}
		h.dramWindow = w
		h.allocNext = DRAMBase + 0x10000 // keep page zero unmapped
	}
	return h, nil
}

// deliverDRAM is the fabric sink for host DRAM: inbound DMA crosses the
// memory bus and is counted as memory traffic.
func (h *Host) deliverDRAM(ready units.Time, n units.Bytes) units.Time {
	_, end := h.MemBus.Transfer(ready, n)
	h.memBus.AddBytes(n)
	return end
}

// AllocDMA reserves a DMA-able host buffer address range at time ready
// (what the Morpheus runtime does when the compiler "inserts runtime
// system calls ... to make these memory addresses available for the
// Morpheus-SSD to access through DMA"). Pinning costs a syscall.
func (h *Host) AllocDMA(ready units.Time, size units.Bytes) (pcie.Addr, units.Time, error) {
	if h.dramWindow == nil {
		return 0, ready, fmt.Errorf("host: no fabric attached")
	}
	if uint64(h.allocNext-DRAMBase)+uint64(size) > h.dramWindow.Size {
		return 0, ready, fmt.Errorf("host: DMA allocator exhausted")
	}
	a := h.allocNext
	h.allocNext += pcie.Addr(size)
	h.pinned[a] = size
	return a, h.Syscall(ready), nil
}

// FreeDMA unpins a buffer returned by AllocDMA. The bump allocator never
// reuses address space (the simulation only needs the pin ledger), so this
// is pure accounting: the unpin syscall's cost was pre-paid by AllocDMA.
// Unknown addresses are ignored.
func (h *Host) FreeDMA(addr pcie.Addr) { delete(h.pinned, addr) }

// PinnedDMA reports how many DMA buffers are currently pinned. Leak tests
// assert it returns to zero after failed device invocations.
func (h *Host) PinnedDMA() int { return len(h.pinned) }

// PinnedDMABytes reports the total pinned buffer size.
func (h *Host) PinnedDMABytes() units.Bytes {
	var n units.Bytes
	for _, sz := range h.pinned {
		n += sz
	}
	return n
}

// SetFrequency changes the DVFS operating point, clamped to the CPU's
// range. Used by the "slower server" experiments.
func (h *Host) SetFrequency(f units.Frequency) {
	if f > h.CPU.MaxFreq {
		f = h.CPU.MaxFreq
	}
	if f < h.CPU.MinFreq {
		f = h.CPU.MinFreq
	}
	h.CPU.Freq = f
}

// Compute occupies one CPU core for the given instruction count at the
// given IPC, starting no earlier than ready, and returns the completion
// time.
func (h *Host) Compute(ready units.Time, instructions, ipc float64) units.Time {
	if ipc <= 0 {
		ipc = 1
	}
	d := h.CPU.Freq.Cycles(instructions / ipc)
	_, end := h.Cores.Acquire(ready, d)
	return end
}

// ComputeCycles occupies one CPU core for a raw cycle count.
func (h *Host) ComputeCycles(ready units.Time, cycles float64) units.Time {
	return h.Compute(ready, cycles, 1)
}

// ComputeOn occupies a specific core (thread pinning) for a cycle count.
func (h *Host) ComputeOn(core int, ready units.Time, cycles float64) units.Time {
	_, end := h.Cores.Member(core).Acquire(ready, h.CPU.Freq.Cycles(cycles))
	return end
}

// MemTraffic charges n bytes of CPU-memory bus traffic starting at ready
// and returns when the bus is done with it.
func (h *Host) MemTraffic(ready units.Time, n units.Bytes) units.Time {
	_, end := h.MemBus.Transfer(ready, n)
	h.memBus.AddBytes(n)
	return end
}

// Syscall charges one system-call entry/exit.
func (h *Host) Syscall(ready units.Time) units.Time {
	h.syscalls.Add(1)
	return ready.Add(h.OS.Syscall)
}

// ContextSwitch charges one context switch.
func (h *Host) ContextSwitch(ready units.Time) units.Time {
	h.ctxSwitches.Add(1)
	return ready.Add(h.OS.ContextSwitch)
}

// BlockingWait models a thread blocking from ready until the event at t:
// the thread switches out, the wakeup arrives by interrupt, and the thread
// switches back in — two context switches and one interrupt, the pattern
// the paper counts for conventional I/O ("fetching data from the storage
// device ... can lead to system calls or [long] latency operations").
func (h *Host) BlockingWait(ready, t units.Time) units.Time {
	now := h.ContextSwitch(ready)
	if now < t {
		now = t
	}
	now = now.Add(h.OS.Interrupt)
	return h.ContextSwitch(now)
}

// PageFault charges one minor page fault.
func (h *Host) PageFault(ready units.Time) units.Time {
	h.pageFaults.Add(1)
	return ready.Add(h.OS.PageFault)
}

// Fabric returns the PCIe fabric the host is attached to (nil if none).
func (h *Host) Fabric() *pcie.Fabric { return h.fabric }
