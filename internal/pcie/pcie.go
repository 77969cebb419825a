// Package pcie models the PCIe interconnect that joins the host root
// complex, the SSD, and the GPU: per-endpoint full-duplex links with TLP
// framing overhead, a switch with a programmable address map (BAR windows),
// and DMA routing that either crosses into host DRAM or — when a peer BAR
// window is mapped, as NVMe-P2P does — goes device-to-device without
// touching the host at all.
//
// The observable effects the paper relies on are (a) traffic volumes on the
// I/O interconnect and the CPU-memory bus, and (b) the latency/bandwidth of
// transfers; both are first-class here. Actual payload bytes ride along so
// the data plane stays real.
package pcie

import (
	"fmt"
	"sort"

	"morpheus/internal/sim"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Addr is a flat system-interconnect address. Host DRAM occupies the
// bottom of the space; device BARs are mapped high.
type Addr uint64

// Gen3x4 is the effective per-direction bandwidth of a PCIe 3.0 x4 link
// (8 GT/s × 4 lanes × 128b/130b ≈ 3.94 GB/s raw).
const Gen3x4 = 3.94 * units.GBps

// Gen3x16 is the per-direction bandwidth of a PCIe 3.0 x16 link (the GPU).
const Gen3x16 = 15.75 * units.GBps

// TLP framing constants: each transaction-layer packet carries up to
// MaxPayload bytes of data plus header/CRC overhead, which is how the
// model discounts raw link bandwidth into effective bandwidth.
const (
	MaxPayload  units.Bytes = 256
	TLPOverhead units.Bytes = 26 // header(12/16) + framing + LCRC
)

// wireBytes returns the on-the-wire size of moving n payload bytes.
func wireBytes(n units.Bytes) units.Bytes {
	if n <= 0 {
		return 0
	}
	packets := (n + MaxPayload - 1) / MaxPayload
	return n + packets*TLPOverhead
}

// Sink is the backing store behind an address window. Deliver charges the
// cost of landing (or sourcing) n bytes behind the window — for host DRAM
// this is the CPU-memory bus; for a GPU BAR it is the device memory.
type Sink interface {
	Deliver(ready units.Time, n units.Bytes) (end units.Time)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ready units.Time, n units.Bytes) units.Time

// Deliver implements Sink.
func (f SinkFunc) Deliver(ready units.Time, n units.Bytes) units.Time { return f(ready, n) }

// NullSink is a zero-cost backing store.
var NullSink Sink = SinkFunc(func(ready units.Time, _ units.Bytes) units.Time { return ready })

// Window is a mapped region of the interconnect address space.
type Window struct {
	Name     string
	Base     Addr
	Size     uint64
	Endpoint string // owning endpoint ("host" for DRAM windows)
	Sink     Sink

	traceName trace.Name // Name, interned when the window is mapped
}

// Contains reports whether a falls inside the window.
func (w *Window) Contains(a Addr) bool {
	return a >= w.Base && uint64(a-w.Base) < w.Size
}

// Endpoint is a device (or the root complex) attached to the switch, with
// a full-duplex link: one pipe per direction.
type Endpoint struct {
	name  string
	track trace.Name // trace track of its DMA spans: "pcie." + name
	up    *sim.Pipe  // device -> switch
	down  *sim.Pipe  // switch -> device
}

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// UpstreamBytes returns payload-equivalent wire bytes sent upstream.
func (e *Endpoint) UpstreamBytes() units.Bytes { return e.up.Moved() }

// DownstreamBytes returns payload-equivalent wire bytes sent downstream.
func (e *Endpoint) DownstreamBytes() units.Bytes { return e.down.Moved() }

// BusyTime sums link occupancy across both directions (utilization
// reports: divide by 2× the horizon for a full-duplex link).
func (e *Endpoint) BusyTime() units.Duration { return e.up.BusyTime() + e.down.BusyTime() }

// ResetTimers clears both directions' occupancy and traffic statistics —
// the endpoint's part of the setup/measurement boundary.
func (e *Endpoint) ResetTimers() {
	e.up.Reset()
	e.down.Reset()
}

// Fabric is the switch plus the attached endpoints and the address map.
type Fabric struct {
	endpoints map[string]*Endpoint
	windows   []*Window
	// hostBytes, p2pBytes and transfers are the traffic counters,
	// resolved once from the counter set.
	hostBytes, p2pBytes, transfers stats.Counter

	// HostName identifies the root-complex endpoint; traffic to or from
	// windows owned by it is counted as host traffic, everything else as
	// peer-to-peer.
	hostName string

	tracer *trace.Tracer
	span   trace.SpanID
}

// Trace names of DMA spans and their details: the byte count and the
// window's interned name.
var (
	dmaOutName = trace.Intern("dma-out")
	dmaInName  = trace.Intern("dma-in")
	dmaOutKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("%v -> %s", units.Bytes(a[0]), trace.Name(a[1]))
	})
	dmaInKind = trace.RegisterDetail(func(a [3]int64) string {
		return fmt.Sprintf("%v <- %s", units.Bytes(a[0]), trace.Name(a[1]))
	})
)

func dmaDetail(kind trace.DetailKind, n units.Bytes, w *Window) trace.Detail {
	return trace.Detail{Kind: kind, Args: [3]int64{int64(n), int64(w.traceName)}}
}

// SetTracer attaches an event tracer (nil to disable).
func (f *Fabric) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetSpan sets the causal parent for subsequently recorded DMA events
// (the in-flight NVMe command's span; see flash.Array.SetSpan).
func (f *Fabric) SetSpan(s trace.SpanID) { f.span = s }

// NewFabric returns a fabric counting traffic into the given counter set.
func NewFabric(counters *stats.Set, hostName string) *Fabric {
	return &Fabric{
		endpoints: make(map[string]*Endpoint),
		hostBytes: counters.Counter(stats.PCIeHostBytes),
		p2pBytes:  counters.Counter(stats.PCIeP2PBytes),
		transfers: counters.Counter(stats.DMATransfers),
		hostName:  hostName,
	}
}

// Attach adds an endpoint with the given per-direction link bandwidth and
// propagation latency.
func (f *Fabric) Attach(name string, bw units.Bandwidth, latency units.Duration) *Endpoint {
	if _, dup := f.endpoints[name]; dup {
		panic("pcie: duplicate endpoint " + name)
	}
	e := &Endpoint{
		name:  name,
		track: trace.Intern("pcie." + name),
		up:    sim.NewPipe("pcie."+name+".up", latency, bw),
		down:  sim.NewPipe("pcie."+name+".down", latency, bw),
	}
	f.endpoints[name] = e
	return e
}

// ResetTimers clears link occupancy and traffic statistics on every
// attached endpoint, preserving the address map. Without it, attach-time
// traffic (the driver's Identify DMA) and earlier runs leak into the
// link-utilization gauges of the measured run.
func (f *Fabric) ResetTimers() {
	for _, e := range f.endpoints {
		e.ResetTimers()
	}
}

// Endpoint returns a previously attached endpoint.
func (f *Fabric) Endpoint(name string) *Endpoint {
	e, ok := f.endpoints[name]
	if !ok {
		panic("pcie: unknown endpoint " + name)
	}
	return e
}

// MapWindow programs an address window into the switch (what NVMMU/Donard/
// NVMe-P2P do when they program a device BAR for peer access). Overlapping
// windows are rejected.
func (f *Fabric) MapWindow(w Window) (*Window, error) {
	if w.Size == 0 {
		return nil, fmt.Errorf("pcie: empty window %q", w.Name)
	}
	for _, old := range f.windows {
		if w.Base < old.Base+Addr(old.Size) && old.Base < w.Base+Addr(w.Size) {
			return nil, fmt.Errorf("pcie: window %q overlaps %q", w.Name, old.Name)
		}
	}
	nw := w
	nw.traceName = trace.Intern(w.Name)
	f.windows = append(f.windows, &nw)
	sort.Slice(f.windows, func(i, j int) bool { return f.windows[i].Base < f.windows[j].Base })
	return &nw, nil
}

// UnmapWindow removes a window by name.
func (f *Fabric) UnmapWindow(name string) {
	for i, w := range f.windows {
		if w.Name == name {
			f.windows = append(f.windows[:i], f.windows[i+1:]...)
			return
		}
	}
}

// Resolve finds the window containing a.
func (f *Fabric) Resolve(a Addr) (*Window, error) {
	i := sort.Search(len(f.windows), func(i int) bool {
		return f.windows[i].Base+Addr(f.windows[i].Size) > a
	})
	if i < len(f.windows) && f.windows[i].Contains(a) {
		return f.windows[i], nil
	}
	return nil, fmt.Errorf("pcie: unmapped address 0x%X", uint64(a))
}

func (f *Fabric) count(dev string, w *Window, n units.Bytes) {
	if w.Endpoint == f.hostName || dev == f.hostName {
		f.hostBytes.AddBytes(n)
	} else {
		f.p2pBytes.AddBytes(n)
	}
	f.transfers.Add(1)
}

// WriteTo DMAs n bytes from endpoint dev into the window containing dst:
// the device's upstream link, then the target's downstream link (unless
// the target is host DRAM, whose sink models the memory path).
func (f *Fabric) WriteTo(ready units.Time, dev string, dst Addr, n units.Bytes) (units.Time, error) {
	src := f.Endpoint(dev)
	w, err := f.Resolve(dst)
	if err != nil {
		return ready, err
	}
	_, t := src.up.Transfer(ready, wireBytes(n))
	if w.Endpoint != dev && w.Endpoint != f.hostName {
		_, t = f.Endpoint(w.Endpoint).down.Transfer(t, wireBytes(n))
	}
	t = w.Sink.Deliver(t, n)
	f.count(dev, w, n)
	if f.tracer != nil {
		f.tracer.Span(src.track, dmaOutName, dmaDetail(dmaOutKind, n, w), f.span, ready, t)
	}
	return t, nil
}

// ReadFrom DMAs n bytes from the window containing src into endpoint dev.
func (f *Fabric) ReadFrom(ready units.Time, dev string, src Addr, n units.Bytes) (units.Time, error) {
	dst := f.Endpoint(dev)
	w, err := f.Resolve(src)
	if err != nil {
		return ready, err
	}
	t := w.Sink.Deliver(ready, n)
	if w.Endpoint != dev && w.Endpoint != f.hostName {
		_, t = f.Endpoint(w.Endpoint).up.Transfer(t, wireBytes(n))
	}
	_, t = dst.down.Transfer(t, wireBytes(n))
	f.count(dev, w, n)
	if f.tracer != nil {
		f.tracer.Span(dst.track, dmaInName, dmaDetail(dmaInKind, n, w), f.span, ready, t)
	}
	return t, nil
}

// MMIO models a small programmed-I/O access from the host to a device
// register (a doorbell write): fixed posted-write latency, negligible
// bandwidth.
func (f *Fabric) MMIO(ready units.Time, dev string) units.Time {
	e := f.Endpoint(dev)
	_, t := e.down.Transfer(ready, 8)
	return t
}

// Windows returns a copy of the current address map, for inspection.
func (f *Fabric) Windows() []Window {
	out := make([]Window, len(f.windows))
	for i, w := range f.windows {
		out[i] = *w
	}
	return out
}
