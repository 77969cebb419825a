package pcie

import (
	"testing"

	"morpheus/internal/stats"
	"morpheus/internal/units"
)

func newFabric() (*Fabric, *stats.Set) {
	reg := stats.NewRegistry()
	return NewFabric(reg, "host"), reg.Counters()
}

func TestWindowMappingAndResolve(t *testing.T) {
	f, _ := newFabric()
	f.Attach("host", Gen3x16, 0)
	if _, err := f.MapWindow(Window{Name: "dram", Base: 0, Size: 1 << 30, Endpoint: "host", Sink: NullSink}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MapWindow(Window{Name: "bar", Base: 1 << 40, Size: 1 << 20, Endpoint: "gpu", Sink: NullSink}); err != nil {
		t.Fatal(err)
	}
	w, err := f.Resolve(100)
	if err != nil || w.Name != "dram" {
		t.Fatalf("resolve 100: %v %v", w, err)
	}
	w, err = f.Resolve(1<<40 + 5)
	if err != nil || w.Name != "bar" {
		t.Fatalf("resolve bar: %v %v", w, err)
	}
	if _, err := f.Resolve(1 << 50); err == nil {
		t.Fatal("unmapped address must not resolve")
	}
	// Overlap rejected.
	if _, err := f.MapWindow(Window{Name: "overlap", Base: 1 << 29, Size: 1 << 30, Sink: NullSink}); err == nil {
		t.Fatal("overlapping window must be rejected")
	}
	// Unmap then the address no longer resolves.
	f.UnmapWindow("bar")
	if _, err := f.Resolve(1<<40 + 5); err == nil {
		t.Fatal("unmapped window still resolves")
	}
}

func TestDMAHostVsPeerAccounting(t *testing.T) {
	f, counters := newFabric()
	f.Attach("host", Gen3x16, 0)
	f.Attach("ssd", Gen3x4, 0)
	f.Attach("gpu", Gen3x16, 0)
	f.MapWindow(Window{Name: "dram", Base: 0, Size: 1 << 30, Endpoint: "host", Sink: NullSink})
	f.MapWindow(Window{Name: "gpubar", Base: 1 << 40, Size: 1 << 30, Endpoint: "gpu", Sink: NullSink})

	if _, err := f.WriteTo(0, "ssd", 0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	if counters.Get(stats.PCIeHostBytes) != 4096 {
		t.Fatalf("host bytes = %d", counters.Get(stats.PCIeHostBytes))
	}
	if counters.Get(stats.PCIeP2PBytes) != 0 {
		t.Fatal("no peer traffic expected yet")
	}
	if _, err := f.WriteTo(0, "ssd", 1<<40, 4096); err != nil {
		t.Fatal(err)
	}
	if counters.Get(stats.PCIeP2PBytes) != 4096 {
		t.Fatalf("p2p bytes = %d", counters.Get(stats.PCIeP2PBytes))
	}
	if counters.Get(stats.PCIeHostBytes) != 4096 {
		t.Fatal("peer DMA must not count as host traffic")
	}
	if counters.Get(stats.DMATransfers) != 2 {
		t.Fatalf("transfers = %d", counters.Get(stats.DMATransfers))
	}
}

func TestP2PUsesPeerLink(t *testing.T) {
	f, _ := newFabric()
	f.Attach("host", Gen3x16, 0)
	f.Attach("ssd", Gen3x4, 0)
	f.Attach("gpu", Gen3x16, 0)
	f.MapWindow(Window{Name: "gpubar", Base: 1 << 40, Size: 1 << 30, Endpoint: "gpu", Sink: NullSink})
	if _, err := f.WriteTo(0, "ssd", 1<<40, 1<<20); err != nil {
		t.Fatal(err)
	}
	if f.Endpoint("gpu").DownstreamBytes() == 0 {
		t.Fatal("peer write must cross the GPU's downstream link")
	}
	if f.Endpoint("ssd").UpstreamBytes() == 0 {
		t.Fatal("peer write must cross the SSD's upstream link")
	}
	if f.Endpoint("host").DownstreamBytes() != 0 {
		t.Fatal("peer write must bypass the host link entirely")
	}
}

func TestTransferTiming(t *testing.T) {
	f, _ := newFabric()
	f.Attach("host", Gen3x16, 0)
	f.Attach("ssd", units.Bandwidth(1e9), 0) // 1 GB/s for easy math
	f.MapWindow(Window{Name: "dram", Base: 0, Size: 1 << 30, Endpoint: "host", Sink: NullSink})
	n := units.Bytes(1 << 20)
	end, err := f.WriteTo(0, "ssd", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	// Wire bytes exceed payload by the TLP overhead.
	minTime := units.Bandwidth(1e9).TimeFor(n)
	if units.Duration(end) <= minTime {
		t.Fatalf("transfer time %v must exceed payload-only time %v (TLP overhead)", end, minTime)
	}
	maxTime := units.Bandwidth(1e9).TimeFor(n + n/5)
	if units.Duration(end) > maxTime {
		t.Fatalf("TLP overhead too large: %v > %v", end, maxTime)
	}
}

func TestWireBytesMonotone(t *testing.T) {
	if wireBytes(0) != 0 {
		t.Fatal("zero payload must have zero wire bytes")
	}
	if wireBytes(1) != 1+TLPOverhead {
		t.Fatalf("1 byte = %d wire bytes", wireBytes(1))
	}
	if wireBytes(MaxPayload) != MaxPayload+TLPOverhead {
		t.Fatalf("one full packet = %d", wireBytes(MaxPayload))
	}
	if wireBytes(MaxPayload+1) != MaxPayload+1+2*TLPOverhead {
		t.Fatalf("two packets = %d", wireBytes(MaxPayload+1))
	}
}

func TestSinkDelayPropagates(t *testing.T) {
	f, _ := newFabric()
	f.Attach("host", Gen3x16, 0)
	f.Attach("ssd", Gen3x4, 0)
	slow := SinkFunc(func(ready units.Time, n units.Bytes) units.Time {
		return ready.Add(10 * units.Millisecond)
	})
	f.MapWindow(Window{Name: "dram", Base: 0, Size: 1 << 30, Endpoint: "host", Sink: slow})
	end, err := f.WriteTo(0, "ssd", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if units.Duration(end) < 10*units.Millisecond {
		t.Fatalf("sink delay lost: %v", end)
	}
}

func TestMMIOAndDuplicateEndpoint(t *testing.T) {
	f, _ := newFabric()
	f.Attach("ssd", Gen3x4, 100*units.Nanosecond)
	end := f.MMIO(0, "ssd")
	if end <= 0 {
		t.Fatal("MMIO must take time")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate endpoint must panic")
		}
	}()
	f.Attach("ssd", Gen3x4, 0)
}
