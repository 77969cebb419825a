package host

import (
	"morpheus/internal/sim"
	"morpheus/internal/units"
)

// Medium is a storage device as seen by the conventional read path: a
// sequential source of file bytes landing in a host memory buffer. The
// Figure 3 experiment swaps media under an unchanged deserializer to show
// deserialization is CPU-bound.
type Medium interface {
	Name() string
	// ReadChunk reads n sequential bytes into host memory, returning the
	// completion time. Implementations charge their own device time and
	// the host memory-bus delivery.
	ReadChunk(ready units.Time, n units.Bytes) units.Time
}

// HDD models the paper's magnetic disk: 158 MB/s sustained sequential
// bandwidth with a positioning delay on the first access of a stream.
type HDD struct {
	host     *Host
	dev      *sim.Pipe
	seek     units.Duration
	seekDone bool
}

// NewHDD returns the paper's hard drive attached to the host.
func NewHDD(h *Host) *HDD {
	return &HDD{
		host: h,
		dev:  sim.NewPipe("hdd", 0, 158*units.MBps),
		seek: 8 * units.Millisecond,
	}
}

// Name implements Medium.
func (d *HDD) Name() string { return "HDD" }

// ReadChunk implements Medium.
func (d *HDD) ReadChunk(ready units.Time, n units.Bytes) units.Time {
	if !d.seekDone {
		ready = ready.Add(d.seek)
		d.seekDone = true
	}
	_, t := d.dev.Transfer(ready, n)
	_, t2 := d.host.MemBus.Transfer(t, n) // DMA into the page cache / buffer
	d.host.memBus.AddBytes(n)
	return t2
}

// Reset clears the drive's occupancy and rearms the initial positioning
// delay for a fresh run.
func (d *HDD) Reset() {
	d.dev.Reset()
	d.seekDone = false
}

// RAMDrive models the paper's 16 GB DRAM-backed drive: reads are memory
// copies, so a chunk crosses the memory bus twice (read source + write
// destination) and is limited by the DDR3 channel, not a device link.
type RAMDrive struct {
	host *Host
}

// NewRAMDrive returns the RAM drive.
func NewRAMDrive(h *Host) *RAMDrive { return &RAMDrive{host: h} }

// Name implements Medium.
func (d *RAMDrive) Name() string { return "RamDrive" }

// ReadChunk implements Medium.
func (d *RAMDrive) ReadChunk(ready units.Time, n units.Bytes) units.Time {
	_, t := d.host.MemBus.Transfer(ready, 2*n)
	d.host.memBus.AddBytes(2 * n)
	return t
}

// PipeMedium adapts any bandwidth/latency pair into a Medium; the NVMe SSD
// model in internal/ssd provides its own richer implementation, but the
// experiment harness also uses this for quick what-if sweeps.
type PipeMedium struct {
	host *Host
	dev  *sim.Pipe
	name string
}

// NewPipeMedium returns a medium with fixed latency and bandwidth.
func NewPipeMedium(h *Host, name string, latency units.Duration, bw units.Bandwidth) *PipeMedium {
	return &PipeMedium{host: h, dev: sim.NewPipe("medium."+name, latency, bw), name: name}
}

// Name implements Medium.
func (d *PipeMedium) Name() string { return d.name }

// ReadChunk implements Medium.
func (d *PipeMedium) ReadChunk(ready units.Time, n units.Bytes) units.Time {
	_, t := d.dev.Transfer(ready, n)
	_, t2 := d.host.MemBus.Transfer(t, n)
	d.host.memBus.AddBytes(n)
	return t2
}

// Reset clears the medium's occupancy and statistics for a fresh run.
func (d *PipeMedium) Reset() { d.dev.Reset() }
