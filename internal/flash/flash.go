// Package flash models a NAND flash array: the storage medium behind the
// simulated SSD. The model carries both planes of the simulation — it
// stores real page contents (so StorageApps later parse real bytes) and it
// charges realistic timing (array access time plus per-channel transfer
// time) against per-channel resources.
//
// Geometry follows the usual hierarchy: the array has C channels, each
// channel D dies, each die P planes, each plane B blocks, each block K
// pages of S bytes. Reads and programs occupy the die for the array time
// and the channel bus for the transfer time; erases occupy the die only.
package flash

import (
	"fmt"

	"morpheus/internal/sim"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Geometry describes the physical shape of the array.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       units.Bytes
}

// TotalPages returns the number of physical pages in the array.
func (g Geometry) TotalPages() int64 {
	return int64(g.Channels) * int64(g.DiesPerChannel) * int64(g.PlanesPerDie) *
		int64(g.BlocksPerPlane) * int64(g.PagesPerBlock)
}

// Capacity returns the raw capacity of the array.
func (g Geometry) Capacity() units.Bytes {
	return units.Bytes(g.TotalPages()) * g.PageSize
}

// Validate reports an error for degenerate geometries and for ones too
// large for a PPA to pack into 64 bits (see PPA.Pack).
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.DiesPerChannel <= 0 || g.PlanesPerDie <= 0 ||
		g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return fmt.Errorf("flash: geometry has non-positive dimension: %+v", g)
	}
	if g.Channels > 1<<ppaChannelBits || g.DiesPerChannel > 1<<ppaDieBits ||
		g.PlanesPerDie > 1<<ppaPlaneBits || g.BlocksPerPlane > 1<<ppaBlockBits ||
		g.PagesPerBlock > 1<<ppaPageBits {
		return fmt.Errorf("flash: geometry exceeds the addressable range: %+v", g)
	}
	return nil
}

// Timing describes the NAND operation latencies and the channel bus rate.
type Timing struct {
	ReadArray    units.Duration  // tR: cell array to page register
	ProgramArray units.Duration  // tPROG
	EraseBlock   units.Duration  // tBERS
	ChannelRate  units.Bandwidth // page register <-> controller
}

// DefaultGeometry is a scaled-down stand-in for the paper's 512 GB SSD.
// The simulation is analytic with respect to capacity, so a smaller array
// keeps memory use reasonable while preserving channel-level parallelism
// (8 channels, as in contemporary client NVMe controllers).
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:       8,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		BlocksPerPlane: 256,
		PagesPerBlock:  256,
		PageSize:       16 * units.KiB,
	}
}

// DefaultTiming matches mid-2010s MLC NAND with a 400 MT/s (≈400 MB/s)
// ONFI channel, which yields the >2 GB/s aggregate sequential read rate the
// paper measures for its NVMe SSD.
func DefaultTiming() Timing {
	return Timing{
		ReadArray:    50 * units.Microsecond,
		ProgramArray: 600 * units.Microsecond,
		EraseBlock:   3 * units.Millisecond,
		ChannelRate:  400 * units.MBps,
	}
}

// PPA is a physical page address.
type PPA struct {
	Channel, Die, Plane, Block, Page int
}

// String renders the address as ch/die/plane/block/page.
func (a PPA) String() string {
	return fmt.Sprintf("ppa(%d/%d/%d/%d/%d)", a.Channel, a.Die, a.Plane, a.Block, a.Page)
}

// Bit widths of a packed PPA's fields, page lowest; they sum to 64, and
// Geometry.Validate keeps every address of a valid array inside them.
const (
	ppaPageBits    = 20
	ppaBlockBits   = 20
	ppaPlaneBits   = 8
	ppaDieBits     = 8
	ppaChannelBits = 8
)

// Pack encodes an address of a valid geometry in one int64 (a trace
// detail argument); UnpackPPA inverts it.
func (a PPA) Pack() int64 {
	v := uint64(a.Channel)
	v = v<<ppaDieBits | uint64(a.Die)
	v = v<<ppaPlaneBits | uint64(a.Plane)
	v = v<<ppaBlockBits | uint64(a.Block)
	v = v<<ppaPageBits | uint64(a.Page)
	return int64(v)
}

// UnpackPPA decodes a PPA.Pack value.
func UnpackPPA(p int64) PPA {
	v := uint64(p)
	field := func(bits uint) int {
		f := int(v & (1<<bits - 1))
		v >>= bits
		return f
	}
	var a PPA
	a.Page = field(ppaPageBits)
	a.Block = field(ppaBlockBits)
	a.Plane = field(ppaPlaneBits)
	a.Die = field(ppaDieBits)
	a.Channel = field(ppaChannelBits)
	return a
}

// BlockAddr is a physical block address (a PPA without the page index).
type BlockAddr struct {
	Channel, Die, Plane, Block int
}

// Block returns the block address containing a.
func (a PPA) BlockAddress() BlockAddr {
	return BlockAddr{a.Channel, a.Die, a.Plane, a.Block}
}

// WithPage returns the PPA for page p within block b.
func (b BlockAddr) WithPage(p int) PPA {
	return PPA{b.Channel, b.Die, b.Plane, b.Block, p}
}

// Array is a NAND flash array with stored contents and timing resources.
type Array struct {
	geo    Geometry
	timing Timing

	channels []*sim.Pipe     // channel bus, one per channel
	dies     []*sim.Resource // die occupancy, indexed ch*DiesPerChannel+die

	data       map[PPA][]byte
	eraseCount map[BlockAddr]int

	faults                     FaultModel
	correctable, uncorrectable int64
	programFaults              int64

	reads, programs, erases int64
	readBytes, progBytes    units.Bytes

	tracer *trace.Tracer
	span   trace.SpanID
	// chanTracks are the channels' trace tracks ("flash.chN").
	chanTracks []trace.Name
}

// Trace names and the detail of read and program spans: the packed PPA.
var (
	readName    = trace.Intern("read")
	programName = trace.Intern("program")
	ppaKind     = trace.RegisterDetail(func(dst []byte, a [3]int64) []byte { return append(dst, UnpackPPA(a[0]).String()...) })
)

func ppaDetail(addr PPA) trace.Detail {
	return trace.Detail{Kind: ppaKind, Args: [3]int64{addr.Pack()}}
}

// SetTracer attaches an event tracer (nil to disable).
func (a *Array) SetTracer(t *trace.Tracer) { a.tracer = t }

// SetSpan sets the causal parent for subsequently recorded events. The
// SSD controller sets it to the in-flight command's span for the duration
// of each Submit (command processing is synchronous, so one span is
// active at a time).
func (a *Array) SetSpan(s trace.SpanID) { a.span = s }

// New returns an erased array.
func New(geo Geometry, timing Timing) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geo:        geo,
		timing:     timing,
		data:       make(map[PPA][]byte),
		eraseCount: make(map[BlockAddr]int),
	}
	for c := 0; c < geo.Channels; c++ {
		a.channels = append(a.channels, sim.NewPipe(fmt.Sprintf("flash.ch%d", c), 0, timing.ChannelRate))
		a.chanTracks = append(a.chanTracks, trace.Intern(a.channels[c].Name()))
		for d := 0; d < geo.DiesPerChannel; d++ {
			a.dies = append(a.dies, sim.NewResource(fmt.Sprintf("flash.ch%d.die%d", c, d)))
		}
	}
	return a, nil
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Timing returns the array's timing parameters.
func (a *Array) Timing() Timing { return a.timing }

func (a *Array) die(addr PPA) *sim.Resource {
	return a.dies[addr.Channel*a.geo.DiesPerChannel+addr.Die]
}

func (a *Array) check(addr PPA) error {
	g := a.geo
	if addr.Channel < 0 || addr.Channel >= g.Channels ||
		addr.Die < 0 || addr.Die >= g.DiesPerChannel ||
		addr.Plane < 0 || addr.Plane >= g.PlanesPerDie ||
		addr.Block < 0 || addr.Block >= g.BlocksPerPlane ||
		addr.Page < 0 || addr.Page >= g.PagesPerBlock {
		return fmt.Errorf("flash: address out of range: %v", addr)
	}
	return nil
}

// Read returns the contents of a page and the time the data is available
// at the controller. An erased (never-programmed) page reads as an
// all-0xFF page, as real NAND does. With a fault model installed, reads
// may pay an ECC read-retry penalty or fail with ErrUncorrectable.
func (a *Array) Read(ready units.Time, addr PPA) (data []byte, done units.Time, err error) {
	if err := a.check(addr); err != nil {
		return nil, ready, err
	}
	a.reads++
	extra, ferr := a.checkFaults(addr)
	dieStart, arrayDone := a.die(addr).Acquire(ready, a.timing.ReadArray+extra)
	if ferr != nil {
		return nil, arrayDone, ferr
	}
	_, done = a.channels[addr.Channel].Transfer(arrayDone, a.geo.PageSize)
	a.readBytes += a.geo.PageSize
	if a.tracer != nil {
		a.tracer.Span(a.chanTracks[addr.Channel], readName, ppaDetail(addr), a.span, dieStart, done)
	}
	if d, ok := a.data[addr]; ok {
		return d, done, nil
	}
	erased := make([]byte, a.geo.PageSize)
	for i := range erased {
		erased[i] = 0xFF
	}
	return erased, done, nil
}

// Program writes data to an erased page and returns the completion time.
// Programming a page twice without an intervening erase is a firmware bug
// and is reported as an error (write-once semantics of NAND).
func (a *Array) Program(ready units.Time, addr PPA, data []byte) (done units.Time, err error) {
	if err := a.check(addr); err != nil {
		return ready, err
	}
	if _, exists := a.data[addr]; exists {
		return ready, fmt.Errorf("flash: program to non-erased page %v", addr)
	}
	if units.Bytes(len(data)) > a.geo.PageSize {
		return ready, fmt.Errorf("flash: program of %d bytes exceeds page size %v", len(data), a.geo.PageSize)
	}
	if err := a.checkProgramFault(addr); err != nil {
		return ready, fmt.Errorf("flash: program %v: %w", addr, err)
	}
	page := make([]byte, a.geo.PageSize)
	copy(page, data)
	xferStart, xferDone := a.channels[addr.Channel].Transfer(ready, a.geo.PageSize)
	_, done = a.die(addr).Acquire(xferDone, a.timing.ProgramArray)
	a.data[addr] = page
	a.programs++
	a.progBytes += a.geo.PageSize
	if a.tracer != nil {
		a.tracer.Span(a.chanTracks[addr.Channel], programName, ppaDetail(addr), a.span, xferStart, done)
	}
	return done, nil
}

// Erase erases a whole block, returning the completion time.
func (a *Array) Erase(ready units.Time, blk BlockAddr) (done units.Time, err error) {
	probe := blk.WithPage(0)
	if err := a.check(probe); err != nil {
		return ready, err
	}
	for p := 0; p < a.geo.PagesPerBlock; p++ {
		delete(a.data, blk.WithPage(p))
	}
	_, done = a.die(probe).Acquire(ready, a.timing.EraseBlock)
	a.eraseCount[blk]++
	a.erases++
	return done, nil
}

// Programmed reports whether the page currently holds data.
func (a *Array) Programmed(addr PPA) bool {
	_, ok := a.data[addr]
	return ok
}

// EraseCount returns the number of erases a block has seen (wear).
func (a *Array) EraseCount(blk BlockAddr) int { return a.eraseCount[blk] }

// Stats returns operation counts: reads, programs, erases.
func (a *Array) Stats() (reads, programs, erases int64) {
	return a.reads, a.programs, a.erases
}

// BytesMoved returns total bytes read from and programmed to the array.
func (a *Array) BytesMoved() (read, programmed units.Bytes) {
	return a.readBytes, a.progBytes
}

// ResetTimers clears channel and die occupancy plus movement statistics
// while preserving stored contents. Used after staging benchmark inputs.
func (a *Array) ResetTimers() {
	for _, ch := range a.channels {
		ch.Reset()
	}
	for _, d := range a.dies {
		d.Reset()
	}
	a.reads, a.programs, a.erases = 0, 0, 0
	a.readBytes, a.progBytes = 0, 0
}

// ChannelBusyTime sums occupancy across channels (utilization reports).
func (a *Array) ChannelBusyTime() units.Duration {
	var t units.Duration
	for _, ch := range a.channels {
		t += ch.BusyTime()
	}
	return t
}
