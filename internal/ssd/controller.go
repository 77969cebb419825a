package ssd

import (
	"errors"
	"fmt"

	"morpheus/internal/flash"
	"morpheus/internal/ftl"
	"morpheus/internal/nvme"
	"morpheus/internal/pcie"
	"morpheus/internal/sim"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// CmdContext pairs an NVMe command with its data-plane payload. The
// command carries addresses and lengths; the payload fields carry the
// actual bytes, which in hardware would sit behind the PRP pointers.
type CmdContext struct {
	Cmd nvme.Command

	// MINIT payload: the StorageApp image, host arguments, and the
	// optional native continuation for sampled execution.
	Code   []byte
	Args   []int64
	Native NativeFunc

	// WRITE / MWRITE payload: the data the host DMAs to the device.
	Data []byte

	// READ / MREAD data sink: receives the bytes the device DMAs to the
	// destination address (host DRAM or a peer BAR). p is borrowed: it is
	// read-only and valid only until Sink returns, since the controller
	// reuses the buffer behind it for the next command. A sink that keeps
	// the bytes copies them.
	Sink func(p []byte)

	// LastChunk marks the final MREAD of a stream so the firmware can
	// signal end-of-stream to the StorageApp.
	LastChunk bool

	// ValidBytes trims the chunk to the byte-precise stream length (the
	// extent is page-padded on flash; the ms_stream metadata carries the
	// real file size). Zero means the whole chunk is valid.
	ValidBytes int

	// Span is the causal trace span the driver allocated for this command
	// at submission; every device-side event the command causes records it
	// as parent. Zero when tracing is off.
	Span trace.SpanID
}

// Controller is the Morpheus-SSD.
type Controller struct {
	cfg      Config
	counters ctrlCounters
	fabric   *pcie.Fabric

	Flash *flash.Array
	FTL   *ftl.FTL

	cores    []*sim.Resource // embedded cores (firmware + StorageApps)
	frontend *sim.Resource   // NVMe/PCIe interface: command parse + flash/DMA sequencing
	dram     *sim.Pipe
	// coreTracks are the cores' trace tracks ("ssd.coreN").
	coreTracks []trace.Name

	instances map[uint32]*instance
	// dramReserved is the controller DRAM currently pinned as per-instance
	// chunk buffers (reserved at MINIT, released with the slot).
	dramReserved units.Bytes
	// cache is the hot-extent object cache (nil when disabled). Its
	// occupancy shares the DRAMSize budget with dramReserved; instance
	// buffers take priority and evict cached objects under pressure.
	cache *objectCache
	// pageBuf caches the logical page size.
	pageSize units.Bytes
	// memo holds each code image's decoded Program and memoizes the
	// sampled timing rig (rigmemo.go). Host-side only: no counter, span
	// or reset observes it. Nil turns it off (a test seam).
	memo *rigMemo
	// stage is the MREAD data plane's scratch (instance.go), reused by
	// every command and instance.
	stage stagingBufs

	tracer *trace.Tracer
}

// ctrlCounters are the controller's counter handles, resolved once from
// the registry New is given, whose counter set stays embedded for readers.
type ctrlCounters struct {
	*stats.Set
	commands, morphCommands, storageAppCycles                  stats.TimedCounter
	cacheHits, cacheMisses, cacheEvictions, cacheInvalidations stats.TimedCounter
}

func newCtrlCounters(reg *stats.Registry) ctrlCounters {
	return ctrlCounters{
		Set:                reg.Counters(),
		commands:           reg.TimedCounter(stats.NVMeCommands),
		morphCommands:      reg.TimedCounter(stats.MorphCommands),
		storageAppCycles:   reg.TimedCounter(stats.StorageAppCyc),
		cacheHits:          reg.TimedCounter(stats.SSDCacheHits),
		cacheMisses:        reg.TimedCounter(stats.SSDCacheMisses),
		cacheEvictions:     reg.TimedCounter(stats.SSDCacheEvictions),
		cacheInvalidations: reg.TimedCounter(stats.SSDCacheInvalidations),
	}
}

// New builds an SSD and attaches it to the fabric, which every DMA, SQE
// fetch and CQE post crosses.
func New(cfg Config, reg *stats.Registry, fabric *pcie.Fabric) (*Controller, error) {
	arr, err := flash.New(cfg.Geometry, cfg.Timing)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		counters:  newCtrlCounters(reg),
		fabric:    fabric,
		Flash:     arr,
		FTL:       ftl.New(arr, cfg.FTL),
		frontend:  sim.NewResource("ssd.frontend"),
		dram:      sim.NewPipe("ssd.dram", 0, cfg.DRAMBandwidth),
		instances: make(map[uint32]*instance),
		pageSize:  cfg.Geometry.PageSize,
		memo:      newRigMemo(),
	}
	for i := 0; i < cfg.EmbeddedCores; i++ {
		c.cores = append(c.cores, sim.NewResource(fmt.Sprintf("ssd.core%d", i)))
		c.coreTracks = append(c.coreTracks, trace.Intern(c.cores[i].Name()))
	}
	if cfg.ObjectCache {
		size := cfg.ObjectCacheSize
		if size <= 0 {
			size = DefaultObjectCacheSize
		}
		if size > cfg.DRAMSize {
			size = cfg.DRAMSize
		}
		c.cache = newObjectCache(size)
	}
	fabric.Attach(EndpointName, cfg.LinkBandwidth, cfg.LinkLatency)
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetTracer attaches a command/StorageApp event tracer (nil to disable),
// propagating it into the FTL, the flash array, and the PCIe fabric so
// one tracer sees the whole device-side pipeline.
func (c *Controller) SetTracer(t *trace.Tracer) {
	c.tracer = t
	c.FTL.SetTracer(t)
	c.Flash.SetTracer(t)
	c.fabric.SetTracer(t)
}

// Cores exposes the embedded-core resources (for utilization reports).
func (c *Controller) Cores() []*sim.Resource { return c.cores }

// Instances reports how many StorageApp instances are live (occupied
// execution slots).
func (c *Controller) Instances() int { return len(c.instances) }

// MaxInstances resolves the execution-slot budget.
func (c *Controller) MaxInstances() int {
	if c.cfg.MaxInstances > 0 {
		return c.cfg.MaxInstances
	}
	return 2 * len(c.cores)
}

// PinnedDRAM reports the controller DRAM reserved for live instances'
// chunk buffers. Leak tests assert it returns to zero after every failed
// invocation.
func (c *Controller) PinnedDRAM() units.Bytes { return c.dramReserved }

// instanceBufSize is the per-instance DRAM reservation: one inbound chunk
// plus worst-case expanded output, both bounded by the MDTS.
func (c *Controller) instanceBufSize() units.Bytes { return 3 * c.cfg.MDTS }

// CacheEnabled reports whether the hot-extent object cache is on.
func (c *Controller) CacheEnabled() bool { return c.cache != nil }

// CacheBytes reports the object cache's current DRAM occupancy.
func (c *Controller) CacheBytes() units.Bytes {
	if c.cache == nil {
		return 0
	}
	return c.cache.bytes()
}

// CacheCapacity reports the object cache's configured DRAM budget.
func (c *Controller) CacheCapacity() units.Bytes {
	if c.cache == nil {
		return 0
	}
	return c.cache.limit
}

// CacheEntries reports how many chunk results are cached.
func (c *Controller) CacheEntries() int {
	if c.cache == nil {
		return 0
	}
	return c.cache.len()
}

// cacheSpareDRAM is the controller DRAM the cache may occupy: whatever the
// pinned instance buffers leave free.
func (c *Controller) cacheSpareDRAM() units.Bytes {
	spare := c.cfg.DRAMSize - c.dramReserved
	if spare < 0 {
		spare = 0
	}
	return spare
}

// invalidateCache drops every cached entry derived from pages the write
// [slba, slba+nlb) touches. The range is widened to page boundaries:
// writePages read-modify-writes whole pages, so a partial-LBA write still
// replaces full-page content.
func (c *Controller) invalidateCache(span trace.SpanID, slba uint64, nlb uint32, at units.Time) {
	if c.cache == nil || nlb == 0 {
		return
	}
	lpp := c.lbasPerPage()
	first := (int64(slba) / lpp) * lpp
	last := ((int64(slba)+int64(nlb)-1)/lpp + 1) * lpp
	n := c.cache.invalidate(uint64(first), uint32(last-first))
	if n > 0 {
		c.counters.cacheInvalidations.Add(int64(at), int64(n))
		if c.tracer != nil {
			c.tracer.Span(cacheTrack, invalidateName, invalidateDetail(slba, nlb, n), span, at, at)
		}
	}
}

// releaseInstance frees an execution slot and its DRAM reservation. It is
// the single release path, called from MDEINIT and from every terminal
// firmware failure (a trapped StorageApp cannot be resumed).
func (c *Controller) releaseInstance(id uint32) {
	if _, ok := c.instances[id]; !ok {
		return
	}
	delete(c.instances, id)
	c.dramReserved -= c.instanceBufSize()
	if c.dramReserved < 0 {
		c.dramReserved = 0
	}
}

// InstanceCPB reports the measured cycles/byte of a live instance.
func (c *Controller) InstanceCPB(id uint32) (float64, bool) {
	in, ok := c.instances[id]
	if !ok {
		return 0, false
	}
	return in.CyclesPerByte(), true
}

// lbasPerPage converts between the 4 KiB NVMe LBA and the FTL page.
func (c *Controller) lbasPerPage() int64 { return int64(c.pageSize) / nvme.LBASize }

// Submit is the firmware loop body — SQE fetch, opcode dispatch, CQE
// post — for one NVMe command. It returns the completion and the
// simulated time at which the completion is posted. The caller (the
// driver model in internal/core) charges doorbell/interrupt costs and
// host-side completion handling.
func (c *Controller) Submit(ready units.Time, ctx *CmdContext) (nvme.Completion, units.Time) {
	c.counters.commands.Add(int64(ready), 1)
	cmd := &ctx.Cmd
	if cmd.Opcode.IsMorpheus() {
		c.counters.morphCommands.Add(int64(ready), 1)
	}
	if c.tracer != nil {
		// Command processing is synchronous within this call, so the FTL,
		// flash, and DMA layers can carry the command's span implicitly for
		// its duration rather than threading it through every signature.
		c.FTL.SetSpan(ctx.Span)
		c.Flash.SetSpan(ctx.Span)
		c.fabric.SetSpan(ctx.Span)
		defer func() {
			c.FTL.SetSpan(0)
			c.Flash.SetSpan(0)
			c.fabric.SetSpan(0)
		}()
	}
	// Fetch the 64-byte SQE from the host ring. The ring and CQE addresses
	// lie in host DRAM; if a fabric leaves them unmapped, the command still
	// runs and only the transfer cost is skipped, so both errors are
	// dropped.
	t, _ := c.fabric.ReadFrom(ready, EndpointName, pcie.Addr(0x1000), nvme.CommandSize)
	if cmd.Opcode.IsMorpheus() && !c.cfg.MorpheusSupported {
		// A stock controller treats the vendor opcodes as unknown.
		return nvme.Completion{CID: cmd.CID, Status: nvme.StatusInvalidOpcode}, t
	}
	var status nvme.Status
	var result uint32
	var done units.Time
	switch cmd.Opcode {
	case nvme.OpAdminIdentify:
		status, done = c.doIdentify(t, ctx)
	case nvme.OpRead:
		status, done = c.doRead(t, ctx)
	case nvme.OpWrite:
		status, done = c.doWrite(t, ctx)
	case nvme.OpFlush:
		_, done = c.frontend.Acquire(t, c.cfg.FirmwareCmdCost)
		status = nvme.StatusSuccess
	case nvme.OpMInit:
		status, done = c.doMInit(t, ctx)
	case nvme.OpMRead:
		status, done = c.doMRead(t, ctx)
	case nvme.OpMWrite:
		status, done = c.doMWrite(t, ctx)
	case nvme.OpMDeinit:
		status, result, done = c.doMDeinit(t, ctx)
	default:
		status = nvme.StatusInvalidOpcode
		done = t
	}
	// Post the 16-byte CQE to the host.
	done, _ = c.fabric.WriteTo(done, EndpointName, pcie.Addr(0x2000), nvme.CompletionSize)
	if c.tracer != nil {
		c.tracer.Span(nvmeTrack, opName(cmd.Opcode),
			nvmeDetail(cmd.SLBA(), cmd.NLB(), status), ctx.Span, ready, done)
		if uint16(status) != 0 {
			// A failed command makes its whole tree interesting to the
			// tail sampler, wherever the failure surfaced.
			c.tracer.Flag(ctx.Span)
		}
	}
	return nvme.Completion{CID: cmd.CID, Status: status, Result: result}, done
}

// readPages reads the logical pages covering [slba, slba+nlb) through the
// FTL and streams each into the controller DRAM. It calls deliver for
// each page's data with the time the page is buffered in DRAM, and
// returns the overall completion.
func (c *Controller) readPages(ready units.Time, slba uint64, nlb uint32, deliver func(data []byte, at units.Time) units.Time) (nvme.Status, units.Time) {
	lpp := c.lbasPerPage()
	firstPage := int64(slba) / lpp
	lastPage := (int64(slba) + int64(nlb) - 1) / lpp
	byteOff := (int64(slba) % lpp) * nvme.LBASize
	remaining := int64(nlb) * nvme.LBASize
	done := ready
	for p := firstPage; p <= lastPage; p++ {
		data, at, err := c.FTL.Read(ready, ftl.LBA(p))
		if err != nil {
			if errors.Is(err, ftl.ErrMediaError) {
				// Grown bad block: report the unrecovered read to the
				// host and retire the block so future writes avoid it.
				if ppa, lerr := c.FTL.Lookup(ftl.LBA(p)); lerr == nil {
					c.FTL.RetireBlock(at, ppa.BlockAddress())
				}
				return nvme.StatusMediaError, at
			}
			return nvme.StatusLBAOutOfRange, done
		}
		// Slice the requested byte range out of the page.
		start := int64(0)
		if p == firstPage {
			start = byteOff
		}
		end := int64(len(data))
		if end-start > remaining {
			end = start + remaining
		}
		chunk := data[start:end]
		remaining -= int64(len(chunk))
		_, buffered := c.dram.Transfer(at, units.Bytes(len(chunk)))
		if t := deliver(chunk, buffered); t > done {
			done = t
		}
	}
	return nvme.StatusSuccess, done
}

// Identify returns the controller's Identify page contents.
func (c *Controller) Identify() *nvme.IdentifyController {
	mdts := uint8(0)
	for n := int64(c.cfg.MDTS) / 4096; n > 1; n >>= 1 {
		mdts++
	}
	return &nvme.IdentifyController{
		VID:          0x11DE, // fictional
		SSVID:        0x11DE,
		SerialNumber: "MORPHSIM0001",
		ModelNumber:  "Morpheus-SSD 512GB (simulated)",
		FirmwareRev:  "MORPH1.0",
		MDTS:         mdts,
		Morpheus: nvme.MorpheusCaps{
			Supported:     c.cfg.MorpheusSupported,
			Version:       1,
			EmbeddedCores: uint8(c.cfg.EmbeddedCores),
			CoreMHz:       uint16(float64(c.cfg.CoreFreq) / 1e6),
			ISRAMKiB:      uint16(c.cfg.ISRAMSize >> 10),
			DSRAMKiB:      uint16(c.cfg.VM.DSRAMSize >> 10),
			FPU:           false, // the Tensilica LX cores have none
		},
	}
}

// doIdentify serves the Identify admin command: the firmware renders the
// 4 KiB page and DMAs it to the host buffer at PRP1.
func (c *Controller) doIdentify(ready units.Time, ctx *CmdContext) (nvme.Status, units.Time) {
	_, t := c.frontend.Acquire(ready, c.cfg.FirmwareCmdCost)
	page := c.Identify().Marshal()
	_, t = c.dram.Transfer(t, nvme.IdentifySize)
	// The page reaches the host through Sink either way; an unmapped PRP1
	// only skips the DMA cost.
	t, _ = c.fabric.WriteTo(t, EndpointName, pcie.Addr(ctx.Cmd.PRP1), nvme.IdentifySize)
	if ctx.Sink != nil {
		ctx.Sink(page)
	}
	return nvme.StatusSuccess, t
}

func (c *Controller) doRead(ready units.Time, ctx *CmdContext) (nvme.Status, units.Time) {
	_, t := c.frontend.Acquire(ready, c.cfg.FirmwareCmdCost)
	dst := pcie.Addr(ctx.Cmd.PRP1)
	var dmaErr error
	status, done := c.readPages(t, ctx.Cmd.SLBA(), ctx.Cmd.NLB(), func(data []byte, at units.Time) units.Time {
		// DRAM -> DMA out.
		_, outReady := c.dram.Transfer(at, units.Bytes(len(data)))
		end, err := c.fabric.WriteTo(outReady, EndpointName, dst, units.Bytes(len(data)))
		if err != nil {
			dmaErr = err
		}
		if ctx.Sink != nil {
			ctx.Sink(data)
		}
		dst += pcie.Addr(len(data))
		return end
	})
	if status == nvme.StatusSuccess && dmaErr != nil {
		status = nvme.StatusInvalidField // unmapped DMA target
	}
	return status, done
}

func (c *Controller) doWrite(ready units.Time, ctx *CmdContext) (nvme.Status, units.Time) {
	_, t := c.frontend.Acquire(ready, c.cfg.FirmwareCmdCost)
	// DMA the data from the source address into controller DRAM. An
	// unmapped PRP means no payload ever arrived: fail before touching
	// flash, like doMRead's DMA-out path.
	n := units.Bytes(ctx.Cmd.NLB()) * nvme.LBASize
	t, err := c.fabric.ReadFrom(t, EndpointName, pcie.Addr(ctx.Cmd.PRP1), n)
	if err != nil {
		return nvme.StatusInvalidField, t
	}
	_, t = c.dram.Transfer(t, n)
	st, end := c.writePages(t, ctx.Cmd.SLBA(), ctx.Cmd.NLB(), ctx.Data)
	// Even a failed write may have programmed a prefix of its pages, so
	// the cache drops overlapping entries unconditionally.
	c.invalidateCache(ctx.Span, ctx.Cmd.SLBA(), ctx.Cmd.NLB(), end)
	return st, end
}

// writePages writes data covering [slba, slba+nlb) through the FTL,
// read-modify-writing partial pages. data is cut at nlb LBAs and
// zero-padded up to them. Whole pages go to the FTL as slices of data
// (Program copies and zero-pads them); only a partial first or last page
// is built, in one scratch page, on top of its old content.
func (c *Controller) writePages(ready units.Time, slba uint64, nlb uint32, data []byte) (nvme.Status, units.Time) {
	lpp := c.lbasPerPage()
	pageSize := int64(c.pageSize)
	reqStart := int64(slba) * nvme.LBASize
	reqEnd := reqStart + int64(nlb)*nvme.LBASize
	n := int64(len(data))
	firstPage := int64(slba) / lpp
	lastPage := (int64(slba) + int64(nlb) - 1) / lpp
	var scratch []byte
	done := ready
	for p := firstPage; p <= lastPage; p++ {
		pageStart := p * pageSize
		start := max(reqStart, pageStart) - pageStart
		end := min(reqEnd, pageStart+pageSize) - pageStart
		// What data holds of the page's range: possibly short or empty.
		off := pageStart + start - reqStart
		src := data[min(off, n):min(off+end-start, n)]
		page := src
		if start > 0 || end < pageSize {
			// Partial page: merge with existing content if mapped.
			if scratch == nil {
				scratch = make([]byte, pageSize)
			}
			page = scratch
			clear(page)
			if old, _, err := c.FTL.Read(ready, ftl.LBA(p)); err == nil {
				copy(page, old)
			}
			clear(page[start:end])
			copy(page[start:end], src)
		}
		t, err := c.FTL.Write(ready, ftl.LBA(p), page)
		if err != nil {
			return nvme.StatusInternal, done
		}
		if t > done {
			done = t
		}
	}
	return nvme.StatusSuccess, done
}

func (c *Controller) doMInit(ready units.Time, ctx *CmdContext) (nvme.Status, units.Time) {
	id := ctx.Cmd.Instance()
	if _, dup := c.instances[id]; dup {
		return nvme.StatusInvalidField, ready
	}
	// Slot exhaustion: every execution slot occupied, or no DRAM left for
	// another chunk buffer. Both clear when an instance is released, so
	// the host may retry.
	if len(c.instances) >= c.MaxInstances() {
		return nvme.StatusNoSlots, ready
	}
	if need := c.dramReserved + c.CacheBytes() + c.instanceBufSize(); need > c.cfg.DRAMSize {
		// The chunk-buffer reservation outranks opportunistically cached
		// objects: shrink the cache before refusing the slot.
		if c.cache != nil {
			if n := c.cache.evictFor(need - c.cfg.DRAMSize); n > 0 {
				c.counters.cacheEvictions.Add(int64(ready), int64(n))
			}
		}
		if c.dramReserved+c.CacheBytes()+c.instanceBufSize() > c.cfg.DRAMSize {
			return nvme.StatusNoSlots, ready
		}
	}
	if units.Bytes(len(ctx.Code)) > c.cfg.ISRAMSize {
		return nvme.StatusSRAMOverflow, ready
	}
	rp, memoized, err := c.memo.program(ctx.Code, c.cfg.VM, c.cfg.Cost)
	if err != nil {
		return nvme.StatusInvalidField, ready
	}
	var root *rigNode
	if memoized && c.cfg.SampledExecution && ctx.Native != nil {
		root = c.memo.root(rp, ctx.Args)
	}
	coreIdx := int(id) % len(c.cores)
	in, err := newInstance(id, coreIdx, rp.prog, ctx.Args, ctx.Native, c.cfg.SampledExecution, c.cfg.VM, c.cfg.Cost, c.memo, root)
	if err != nil {
		return nvme.StatusSRAMOverflow, ready
	}
	// DMA the code image from the host and load it into I-SRAM on the
	// pinned core ("after receiving a MINIT command, the firmware program
	// first ensures that the StorageApp code resides in the I-SRAM").
	// An unmapped PRP means the image never arrived: fail before the slot
	// and its DRAM reservation are committed, so nothing leaks.
	t, err := c.fabric.ReadFrom(ready, EndpointName, pcie.Addr(ctx.Cmd.PRP1), units.Bytes(len(ctx.Code)))
	if err != nil {
		return nvme.StatusInvalidField, ready
	}
	if c.cache != nil {
		in.appHash = appIdentity(ctx.Code, ctx.Args, in.sampled, c.cfg.SampleWindow)
	}
	_, t = c.cores[coreIdx].Acquire(t, c.cfg.FirmwareCmdCost+units.Duration(len(ctx.Code))*2*units.Nanosecond)
	c.instances[id] = in
	c.dramReserved += c.instanceBufSize()
	return nvme.StatusSuccess, t
}

func (c *Controller) doMRead(ready units.Time, ctx *CmdContext) (nvme.Status, units.Time) {
	in, ok := c.instances[ctx.Cmd.Instance()]
	if !ok {
		return nvme.StatusNoInstance, ready
	}
	core := c.cores[in.coreIdx]
	// The NVMe frontend parses the command and sequences the flash
	// fetches autonomously, so chunk k+1's data streams in while the
	// pinned core still runs the StorageApp over chunk k.
	feStart, t := c.frontend.Acquire(ready, c.cfg.FirmwareCmdCost)
	if c.tracer != nil {
		c.tracer.Span(frontendTrack, parseName, parseDetail(ctx.Cmd.Instance()), ctx.Span, feStart, t)
	}
	dst := pcie.Addr(ctx.Cmd.PRP1)
	nlb := ctx.Cmd.NLB()
	// Object-cache consult: if this exact chunk of this exact stream was
	// deserialized before and no overlapping write intervened, replay the
	// recorded result — no flash fetch, no VM execution.
	var key cacheKey
	replayable := false
	if c.cache != nil {
		replayable = in.cacheReplayable(ctx.LastChunk, int64(c.cfg.SampleWindow))
	}
	if replayable {
		key = cacheKey{
			slba: ctx.Cmd.SLBA(), nlb: nlb,
			validBytes: ctx.ValidBytes, lastChunk: ctx.LastChunk,
			appHash: in.appHash, prefixHash: in.streamHash,
		}
		if e, hit := c.cache.get(key); hit {
			return c.serveCached(t, ctx, in, e, key, dst)
		}
		c.counters.cacheMisses.Add(int64(t), 1)
		if c.tracer != nil {
			c.tracer.Span(cacheTrack, missName, missDetail(in.id, key.slba, key.nlb), ctx.Span, t, t)
		}
	}
	// Collect the chunk's pages into D-SRAM (via DRAM), then run the
	// StorageApp over the whole chunk on the pinned core. Page reads
	// overlap; VM execution starts when the data is buffered. The buffer
	// is the controller's staging buffer, grown once to the command's
	// size; the MDTS cap keeps a malformed NLB from reserving more than a
	// well-formed command could.
	if want := min(int64(nlb)*nvme.LBASize, int64(c.cfg.MDTS)); int64(cap(c.stage.chunk)) < want {
		c.stage.chunk = make([]byte, 0, want)
	}
	chunk := c.stage.chunk[:0]
	status, dataAt := c.readPages(t, ctx.Cmd.SLBA(), nlb, func(data []byte, at units.Time) units.Time {
		chunk = append(chunk, data...)
		return at
	})
	if status != nvme.StatusSuccess {
		return status, dataAt
	}
	if ctx.ValidBytes > 0 && len(chunk) > ctx.ValidBytes {
		chunk = chunk[:ctx.ValidBytes]
	}
	res, err := in.processChunk(chunk, ctx.LastChunk, int64(c.cfg.SampleWindow), &c.stage)
	if err != nil {
		// A trapped StorageApp (or a native data plane that hit a
		// malformed token) cannot be resumed: the firmware reaps the
		// instance so its slot and chunk buffer are free immediately,
		// without waiting for the host's abort MDEINIT.
		c.releaseInstance(in.id)
		return nvme.StatusAppFault, dataAt
	}
	if c.cache != nil {
		// Advance the stream identity past the consumed chunk (hit or
		// miss, replayable or not — the prefix hash must cover every
		// chunk).
		in.extents = append(in.extents, extent{slba: ctx.Cmd.SLBA(), nlb: nlb})
		in.streamHash = chunkHash(in.streamHash, cacheKey{
			slba: ctx.Cmd.SLBA(), nlb: nlb,
			validBytes: ctx.ValidBytes, lastChunk: ctx.LastChunk,
		})
	}
	// Chunks of one instance execute in stream order: a later chunk may
	// not backfill an earlier core gap.
	if dataAt < in.lastVMEnd {
		dataAt = in.lastVMEnd
	}
	vmStart, end := core.Acquire(dataAt, c.cfg.CoreFreq.Cycles(res.cycles))
	in.lastVMEnd = end
	if c.tracer != nil {
		c.tracer.Span(c.coreTracks[in.coreIdx], storageAppName,
			storageAppDetail(in.id, len(chunk), res.cycles), ctx.Span, vmStart, end)
	}
	c.counters.storageAppCycles.Add(int64(dataAt), int64(res.cycles))
	// DMA the produced objects to the destination (host DRAM or GPU BAR).
	if len(res.out) > 0 {
		_, end = c.dram.Transfer(end, units.Bytes(len(res.out)))
		if end, err = c.fabric.WriteTo(end, EndpointName, dst, units.Bytes(len(res.out))); err != nil {
			return nvme.StatusInvalidField, end // unmapped DMA target
		}
		if ctx.Sink != nil {
			ctx.Sink(res.out)
		}
	}
	if c.cache != nil && replayable && (in.finished || in.sampled) {
		// The command fully succeeded and the post-chunk transition is
		// replayable: record it. out/carry/extents are cloned: out lives
		// in the staging buffer the next command overwrites, and carry
		// and extents change with the instance.
		e := &cacheEntry{
			key:      key,
			out:      append([]byte(nil), res.out...),
			carry:    append([]byte(nil), in.carry...),
			cpb:      in.cpb,
			finished: in.finished,
			retVal:   in.retVal,
			inBytes:  in.inBytes,
			outBytes: in.outBytes,
			cycles:   in.cycles,
			extents:  append([]extent(nil), in.extents...),
		}
		if n := c.cache.put(e, c.cacheSpareDRAM()); n > 0 {
			c.counters.cacheEvictions.Add(int64(end), int64(n))
		}
	}
	return nvme.StatusSuccess, end
}

// serveCached replays a recorded chunk transition on a cache hit: no flash
// fetch and no VM execution, only the modeled DRAM pass and DMA-out. The
// observable outcome — object bytes, instance accounting, completion
// status — is identical to the miss path's by construction.
func (c *Controller) serveCached(t units.Time, ctx *CmdContext, in *instance, e *cacheEntry, key cacheKey, dst pcie.Addr) (nvme.Status, units.Time) {
	c.counters.cacheHits.Add(int64(t), 1)
	// Chunks of one instance complete in stream order even when served
	// from cache.
	if t < in.lastVMEnd {
		t = in.lastVMEnd
	}
	in.applyCache(e)
	in.streamHash = chunkHash(in.streamHash, cacheKey{
		slba: key.slba, nlb: key.nlb,
		validBytes: key.validBytes, lastChunk: key.lastChunk,
	})
	start := t
	end := t
	if len(e.out) > 0 {
		_, end = c.dram.Transfer(end, units.Bytes(len(e.out)))
		var err error
		if end, err = c.fabric.WriteTo(end, EndpointName, dst, units.Bytes(len(e.out))); err != nil {
			return nvme.StatusInvalidField, end // unmapped DMA target
		}
		if ctx.Sink != nil {
			ctx.Sink(e.out) // borrowed: the entry owns its clone
		}
	}
	if c.tracer != nil {
		c.tracer.Span(cacheTrack, hitName, hitDetail(in.id, key.slba, key.nlb, len(e.out)), ctx.Span, start, end)
	}
	return nvme.StatusSuccess, end
}

func (c *Controller) doMWrite(ready units.Time, ctx *CmdContext) (nvme.Status, units.Time) {
	in, ok := c.instances[ctx.Cmd.Instance()]
	if !ok {
		return nvme.StatusNoInstance, ready
	}
	core := c.cores[in.coreIdx]
	_, t := c.frontend.Acquire(ready, c.cfg.FirmwareCmdCost)
	n := units.Bytes(len(ctx.Data))
	// An unmapped PRP means the serialization payload never arrived: fail
	// before feeding garbage to the StorageApp.
	t, err := c.fabric.ReadFrom(t, EndpointName, pcie.Addr(ctx.Cmd.PRP1), n)
	if err != nil {
		return nvme.StatusInvalidField, t
	}
	_, t = c.dram.Transfer(t, n)
	// MWRITE always interprets (serialization volumes are small; the
	// paper's workloads "spend a relatively small amount of time or
	// almost no time in serializing objects"). A memoized rig's VM may be
	// behind the stream: catchUp replays the memo path first, and the VM
	// then leaves the memo for good, since MWRITE data is not part of any
	// recorded stream. An abandoned VM cannot run the command.
	if in.rigDone {
		c.releaseInstance(in.id)
		return nvme.StatusAppFault, t
	}
	if err := in.catchUp(); err != nil {
		c.releaseInstance(in.id)
		return nvme.StatusAppFault, t
	}
	in.node, in.vmAt = nil, nil
	res, err := in.interpretChunk(ctx.Data, ctx.LastChunk, true)
	if err != nil {
		c.releaseInstance(in.id)
		return nvme.StatusAppFault, t
	}
	in.rig = viewOf(in.vm)
	_, end := core.Acquire(t, c.cfg.CoreFreq.Cycles(res.cycles))
	if len(res.out) > 0 {
		_, end = c.dram.Transfer(end, units.Bytes(len(res.out)))
		nlb := uint32((len(res.out) + nvme.LBASize - 1) / nvme.LBASize)
		st, wEnd := c.writePages(end, ctx.Cmd.SLBA(), nlb, res.out)
		// Even a failed write may have programmed a prefix of its pages,
		// so overlapping cached objects go regardless of status.
		c.invalidateCache(ctx.Span, ctx.Cmd.SLBA(), nlb, wEnd)
		if st != nvme.StatusSuccess {
			// Nothing is committed on failure: the host sees the error
			// before the instance's accounting, completion state, or data
			// sink observe the chunk.
			return st, wEnd
		}
		end = wEnd
		if ctx.Sink != nil {
			ctx.Sink(res.out)
		}
	}
	// Commit instance state only once the data is durably on flash.
	in.cycles += res.cycles
	in.outBytes += int64(len(res.out))
	c.counters.storageAppCycles.Add(int64(t), int64(res.cycles))
	if res.halted {
		in.finished = true
		in.retVal = in.vm.ReturnValue()
	}
	return nvme.StatusSuccess, end
}

func (c *Controller) doMDeinit(ready units.Time, ctx *CmdContext) (nvme.Status, uint32, units.Time) {
	id := ctx.Cmd.Instance()
	in, ok := c.instances[id]
	if !ok {
		return nvme.StatusNoInstance, 0, ready
	}
	_, t := c.cores[in.coreIdx].Acquire(ready, c.cfg.FirmwareCmdCost)
	// "Upon receiving this command, the Morpheus-SSD releases SSD memory
	// of the corresponding StorageApp instance. The StorageApp can use
	// the completion message to send a return value to the host."
	c.releaseInstance(id)
	return nvme.StatusSuccess, uint32(in.retVal), t
}

// ResetTimers clears all timing state and traffic statistics while
// preserving stored data and FTL mappings. The experiment harness calls
// this after preloading datasets so measurements start from an idle
// device at t=0.
func (c *Controller) ResetTimers() {
	for _, core := range c.cores {
		core.Reset()
	}
	c.frontend.Reset()
	c.dram.Reset()
	c.Flash.ResetTimers()
}

// LoadFile writes data onto the SSD starting at the first LBA of a fresh
// page-aligned extent and returns the start LBA and LBA count. It is a
// setup-time convenience used to stage benchmark inputs; it goes through
// the ordinary FTL write path. Each page is handed over as a slice of
// data: programming copies it into a fresh, zero-padded flash page, so a
// short last page reads back as the file's tail followed by zeros.
func (c *Controller) LoadFile(startPage int64, data []byte) (slba uint64, nlb uint32, err error) {
	lpp := c.lbasPerPage()
	pages := (int64(len(data)) + int64(c.pageSize) - 1) / int64(c.pageSize)
	for p := int64(0); p < pages; p++ {
		start := p * int64(c.pageSize)
		end := min(start+int64(c.pageSize), int64(len(data)))
		if _, err := c.FTL.Write(0, ftl.LBA(startPage+p), data[start:end]); err != nil {
			return 0, 0, err
		}
	}
	slba = uint64(startPage) * uint64(lpp)
	nlb = uint32((int64(len(data)) + nvme.LBASize - 1) / nvme.LBASize)
	// Staging new content over an extent invalidates objects derived from
	// its previous content (re-staging between experiment phases).
	c.invalidateCache(0, slba, nlb, 0)
	return slba, nlb, nil
}
