package host

import (
	"testing"

	"morpheus/internal/pcie"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

func newHost(t *testing.T) (*Host, *stats.Set) {
	t.Helper()
	reg := stats.NewRegistry()
	fabric := pcie.NewFabric(reg, EndpointName)
	h, err := New(DefaultCPU(), DefaultOSCosts(), DefaultMem(), reg, fabric)
	if err != nil {
		t.Fatal(err)
	}
	return h, reg.Counters()
}

func TestComputeScalesWithFrequencyAndIPC(t *testing.T) {
	h, _ := newHost(t)
	e1 := h.Compute(0, 2.5e9, 1) // 2.5G instructions at IPC 1, 2.5 GHz = 1 s
	if units.Duration(e1) != units.Second {
		t.Fatalf("compute = %v, want 1s", e1)
	}
	h2, _ := newHost(t)
	e2 := h2.Compute(0, 2.5e9, 2.5) // IPC 2.5 → 0.4 s
	if units.Duration(e2) != 400*units.Millisecond {
		t.Fatalf("compute = %v, want 400ms", e2)
	}
	h2.SetFrequency(1.2 * units.GHz)
	e3 := h2.Compute(e2, 1.2e9, 1)
	if got := units.Time(e3).Sub(e2); got != units.Second {
		t.Fatalf("1.2G cycles at 1.2GHz = %v", got)
	}
}

func TestSetFrequencyClamped(t *testing.T) {
	h, _ := newHost(t)
	h.SetFrequency(10 * units.GHz)
	if h.CPU.Freq != h.CPU.MaxFreq {
		t.Fatalf("freq = %v", h.CPU.Freq)
	}
	h.SetFrequency(0.1 * units.GHz)
	if h.CPU.Freq != h.CPU.MinFreq {
		t.Fatalf("freq = %v", h.CPU.Freq)
	}
}

func TestOSCostsCounted(t *testing.T) {
	h, counters := newHost(t)
	tEnd := h.Syscall(0)
	if units.Duration(tEnd) != h.OS.Syscall {
		t.Fatalf("syscall time = %v", tEnd)
	}
	h.ContextSwitch(tEnd)
	h.PageFault(tEnd)
	if counters.Get(stats.Syscalls) != 1 || counters.Get(stats.CtxSwitches) != 1 || counters.Get(stats.PageFaults) != 1 {
		t.Fatalf("counters: %s", counters)
	}
}

func TestBlockingWaitChargesTwoSwitches(t *testing.T) {
	h, counters := newHost(t)
	end := h.BlockingWait(0, units.Time(10*units.Millisecond))
	if counters.Get(stats.CtxSwitches) != 2 {
		t.Fatalf("switches = %d, want 2", counters.Get(stats.CtxSwitches))
	}
	if units.Duration(end) < 10*units.Millisecond {
		t.Fatalf("woke before the event: %v", end)
	}
	// Event already passed: no blocking, no extra wait.
	c0 := counters.Get(stats.CtxSwitches)
	end2 := h.BlockingWait(end, end-10)
	if counters.Get(stats.CtxSwitches) != c0+2 {
		t.Fatal("blocking wait always charges its two switches in this model")
	}
	if end2 < end {
		t.Fatal("time went backwards")
	}
}

func TestMemTrafficCountsBytes(t *testing.T) {
	h, counters := newHost(t)
	h.MemTraffic(0, 1*units.MiB)
	if counters.Bytes(stats.MemBusBytes) != 1*units.MiB {
		t.Fatalf("membus = %v", counters.Bytes(stats.MemBusBytes))
	}
}

func TestAllocDMADistinctRanges(t *testing.T) {
	h, _ := newHost(t)
	a1, t1, err := h.AllocDMA(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := h.AllocDMA(t1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1+4096 {
		t.Fatalf("ranges overlap: %#x %#x", a1, a2)
	}
}

func TestMediaTiming(t *testing.T) {
	h, _ := newHost(t)
	hdd := NewHDD(h)
	if hdd.Name() != "HDD" {
		t.Fatal("name")
	}
	// First chunk pays the seek; sustained rate is 158 MB/s.
	end := hdd.ReadChunk(0, 158*1000*1000)
	d := units.Duration(end)
	if d < units.Second || d > units.Second+50*units.Millisecond {
		t.Fatalf("158MB at 158MB/s + seek = %v", d)
	}
	end2 := hdd.ReadChunk(end, 158*1000*1000)
	d2 := units.Time(end2).Sub(end)
	if d2 > units.Second+100*units.Millisecond {
		t.Fatalf("second chunk must not seek again: %v", d2)
	}

	ram := NewRAMDrive(h)
	e := ram.ReadChunk(0, 64*units.MiB)
	// Two crossings of the 12.8 GB/s bus.
	want := h.Mem.BusBandwidth.TimeFor(128 * units.MiB)
	if units.Duration(e) < want {
		t.Fatalf("ram drive read %v under the bus floor %v", e, want)
	}

	pm := NewPipeMedium(h, "test", 0, 1000*units.MBps)
	if pm.Name() != "test" {
		t.Fatal("name")
	}
	if got := pm.ReadChunk(0, 1000*1000*1000); units.Duration(got) < units.Second {
		t.Fatalf("pipe medium too fast: %v", got)
	}
}

func TestParseCostModel(t *testing.T) {
	pc := DefaultParseCosts()
	full := pc.CyclesPerInputByte(0)
	conv := pc.ConvertCyclesPerInputByte(0)
	if ratio := full / conv; ratio < 6.5 || ratio > 6.7 {
		t.Fatalf("OS overhead factor = %v, want ~6.6 (the §II profile)", ratio)
	}
	// Float text costs more than integer text.
	if pc.CyclesPerInputByte(0.5) <= full {
		t.Fatal("float fraction must increase parse cost")
	}
}
