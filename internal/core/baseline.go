package core

import (
	"fmt"

	"morpheus/internal/host"
	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/ssd"
	"morpheus/internal/units"
)

// HostParser is the conventional-path deserializer running on the host
// CPU: it receives record-aligned chunks of raw file bytes and returns the
// binary object bytes, exactly mirroring the StorageApp's output so the
// two paths are bit-comparable. Implementations may be stateful closures.
//
// The result is valid until this parser's next call: a parser may append
// every chunk's objects into one buffer it owns. The reuse is per closure
// and never shared across closures, so a fresh parser's first result is
// the caller's to keep. DeserializeConventional and DeserializeFromMedium
// copy each result into their output before the next call.
type HostParser func(chunk []byte, final bool) []byte

// ParseSpec carries the per-application parameters of the host parse cost
// model (§II): the float-text fraction of the input and the application's
// OS-overhead factor (how much file-system/locking/POSIX work inflates the
// conversion loop; the paper's average is 6.6x, with per-app spread).
type ParseSpec struct {
	FloatFrac float64
	// OSFactor overrides ParseCosts.OSOverheadFactor when > 0.
	OSFactor float64
	// ObjPerInByte is the expected object-to-input byte ratio, used only
	// for memory-pressure accounting estimates.
	ObjPerInByte float64
}

// cyclesPerByte resolves the full conventional-path cost.
func (sp ParseSpec) cyclesPerByte(pc host.ParseCosts) float64 {
	if sp.OSFactor > 0 {
		pc.OSOverheadFactor = sp.OSFactor
	}
	return pc.CyclesPerInputByte(sp.FloatFrac)
}

// DeserResult reports one conventional deserialization run.
type DeserResult struct {
	// Out is the parsed object bytes, owned by the caller. It is into[:n]
	// when the destination passed in has room for all n bytes; otherwise
	// it is a fresh buffer whose capacity may exceed its length by the
	// projection slack (see appendProjected).
	Out      []byte
	Done     units.Time
	RawBytes units.Bytes
	Commands int
}

// timesliceQuantum is the scheduler quantum charged against CPU-bound
// phases (Linux CFS-era magnitude).
const timesliceQuantum = 4 * units.Millisecond

// readaheadDepth is how many chunks the page cache prefetches ahead of
// the consuming read(2) — deep enough that a fast device hides behind the
// parse loop (the Figure 3 CPU-bound result), while a slow device (the
// hard drive) still stalls the reader.
const readaheadDepth = 4

// DeserializeConventional runs the baseline path of Figure 1 for one host
// thread pinned to CPU core coreIdx: conventional READs stream into the
// page cache with readahead (phase A), the CPU converts strings to objects
// (phase B), paying the OS overheads the profile in §II measured. Each
// read(2) that crosses a readahead-window edge yields briefly even when
// the data is resident — the syscall/scheduling churn the paper counts in
// Figure 10 — and blocks for real when the device is behind.
//
// The objects land in into when it has room (nil means a fresh buffer);
// see DeserResult.Out.
func (s *System) DeserializeConventional(ready units.Time, f *File, parser HostParser, spec ParseSpec, coreIdx int, into []byte) (*DeserResult, error) {
	cpb := spec.cyclesPerByte(s.Cfg.ParseCosts)
	rp := DefaultRetryPolicy()
	_, t := s.CreateStream(ready, f) // open(2) + fstat equivalent
	bufAddr, t, err := s.Host.AllocDMA(t, 2*units.Bytes(s.Cfg.SSD.MDTS))
	if err != nil {
		return nil, err
	}
	defer s.Host.FreeDMA(bufAddr) // the page-cache staging window
	res := &DeserResult{Out: into[:0]}
	var carry, joined []byte    // the record aligner's state
	var cpuAccum units.Duration // CPU time since the last timeslice expiry
	chunks := s.chunksOf(f)
	raws := make([][]byte, len(chunks))
	pending := make([]Pending, len(chunks))
	// free holds raw buffers whose chunks are parsed. The readahead window
	// keeps at most readaheadDepth+1 raw buffers live.
	var free [][]byte
	// rawSink collects chunk k page by page into a buffer reserved at the
	// chunk's extent on its first page, reusing a free one when it fits.
	rawSink := func(k int) func(p []byte) {
		return func(p []byte) {
			if raws[k] == nil {
				extent := int(chunks[k].nlb) * nvme.LBASize
				if n := len(free); n > 0 && cap(free[n-1]) >= extent {
					raws[k], free = free[n-1], free[:n-1]
				} else {
					raws[k] = make([]byte, 0, extent)
				}
			}
			raws[k] = append(raws[k], p...)
		}
	}
	issued := 0
	for k := range chunks {
		// Keep the readahead window full.
		for ; issued < len(chunks) && issued <= k+readaheadDepth; issued++ {
			ctx := &ssd.CmdContext{
				Cmd:  nvme.BuildRead(0, chunks[issued].slba, chunks[issued].nlb, uint64(bufAddr)),
				Sink: rawSink(issued),
			}
			pending[issued], t = s.Driver.SubmitAsync(t, ctx)
		}
		// Phase A: read(2) consumes the chunk from the page cache.
		failed := pending[k].Comp.Status.Err() != nil
		if !failed && rp.expired(pending[k].Submitted, pending[k].Done) {
			s.metrics.timeouts.Add(int64(pending[k].Done), 1)
			failed = true
		}
		if failed {
			s.tracer.Flag(pending[k].Span)
		}
		// The chunk leaves the queue here either way: a failed readahead is
		// replayed as a fresh command below, which accounts for itself.
		s.Driver.reaped(pending[k])
		if failed {
			// The page cache drops the bad readahead; the consuming read(2)
			// re-issues the chunk synchronously under the retry policy.
			// Unlike an MREAD train, conventional READs are stateless and
			// independent, so a single chunk can be replayed in place.
			origErr := statusErr("READ", pending[k].Comp.Status)
			s.metrics.retries.Add(int64(t), 1)
			_, t2, rerr := s.Driver.SubmitRetry(t, &s.metrics.readRetry, rp, func() *ssd.CmdContext {
				raws[k] = nil
				return &ssd.CmdContext{
					Cmd:  nvme.BuildRead(0, chunks[k].slba, chunks[k].nlb, uint64(bufAddr)),
					Sink: rawSink(k),
				}
			})
			t = t2
			if rerr != nil {
				if origErr != nil {
					rerr = fmt.Errorf("%w (initial read: %w)", rerr, origErr)
				}
				res.Done = t
				return res, rerr
			}
			pending[k].Done = t
		}
		if pending[k].Done > t {
			// Device behind the parser: a real blocking wait.
			t = s.Host.BlockingWait(t, pending[k].Done)
		} else {
			// Data resident: the reader still yields across the window
			// edge (short voluntary switch pair).
			t = s.Host.ContextSwitch(t)
			t = s.Host.ContextSwitch(t)
		}
		s.sampleGauges(t)
		raw := raws[k]
		raws[k] = nil
		ch := chunks[k]
		// The extent is page-padded; trim the final chunk to file size.
		if over := res.RawBytes + units.Bytes(len(raw)) - f.Size; over > 0 {
			raw = raw[:len(raw)-int(over)]
		}
		res.RawBytes += units.Bytes(len(raw))
		// Phase B: parse on the CPU. The conversion loop reads the raw
		// buffer and writes the object array — both cross the memory bus
		// on top of the DMA traffic phase A already produced.
		aligned := serial.AlignRecords(&carry, &joined, raw, ch.last)
		var objs []byte
		if len(aligned) > 0 || ch.last {
			objs = parser(aligned, ch.last)
		}
		before := t
		t = s.Host.ComputeOn(coreIdx, t, cpb*float64(len(raw)))
		s.Host.MemTraffic(t, units.Bytes(len(raw))+units.Bytes(len(objs)))
		s.metrics.parseCycles.Add(int64(cpb * float64(len(raw))))
		// Timeslice preemption: a CPU-bound parse loop sharing a
		// multiprogrammed host gets descheduled once per quantum.
		cpuAccum += t.Sub(before)
		for cpuAccum >= timesliceQuantum {
			cpuAccum -= timesliceQuantum
			t = s.Host.ContextSwitch(t)
			t = s.Host.ContextSwitch(t)
		}
		// Fresh object pages fault in as the array grows.
		if len(objs) > 0 {
			t = s.Host.PageFault(t)
		}
		res.Out = appendProjected(res.Out, objs, int64(res.RawBytes), int64(f.Size))
		// aligned may alias raw, so raw is free only now that the parser's
		// objects are copied out.
		free = append(free, raw[:0])
		res.Commands++
	}
	res.Done = t
	return res, nil
}

// DeserializeFromMedium is the Figure 3 variant: the same conventional
// parse loop (including page-cache readahead), but the raw bytes come from
// an arbitrary storage medium (hard drive, RAM drive) instead of NVMe
// commands, and the data itself is supplied by the caller since those
// media are pure timing models. The objects land in into as in
// DeserializeConventional.
func (s *System) DeserializeFromMedium(ready units.Time, medium host.Medium, data []byte, parser HostParser, spec ParseSpec, coreIdx int, into []byte) (*DeserResult, error) {
	cpb := spec.cyclesPerByte(s.Cfg.ParseCosts)
	t := s.Host.Syscall(ready) // open
	res := &DeserResult{Out: into[:0]}
	// buf is the reader's buffer read(2) copies each chunk into, so the
	// parser never sees the caller's data; carry and joined are the
	// record aligner's state.
	var buf, carry, joined []byte
	chunkSize := int(s.Cfg.SSD.MDTS)
	nChunks := (len(data) + chunkSize - 1) / chunkSize
	ioDone := make([]units.Time, nChunks)
	issued := 0
	issue := func() {
		k := issued
		n := chunkSize
		if (k+1)*chunkSize > len(data) {
			n = len(data) - k*chunkSize
		}
		ioDone[k] = medium.ReadChunk(t, units.Bytes(n))
		issued++
	}
	for k := 0; k < nChunks; k++ {
		off := k * chunkSize
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		buf = append(buf[:0], data[off:end]...)
		raw := buf
		final := end == len(data)
		// Phase A: read(2) against the readahead window.
		for issued < nChunks && issued <= k+readaheadDepth {
			issue()
		}
		t = s.Host.Syscall(t)
		if ioDone[k] > t {
			t = s.Host.BlockingWait(t, ioDone[k])
		} else {
			t = s.Host.ContextSwitch(t)
			t = s.Host.ContextSwitch(t)
		}
		res.RawBytes += units.Bytes(len(raw))
		// Phase B: parse.
		aligned := serial.AlignRecords(&carry, &joined, raw, final)
		var objs []byte
		if len(aligned) > 0 || final {
			objs = parser(aligned, final)
		}
		t = s.Host.ComputeOn(coreIdx, t, cpb*float64(len(raw)))
		s.Host.MemTraffic(t, units.Bytes(len(raw))+units.Bytes(len(objs)))
		if len(objs) > 0 {
			t = s.Host.PageFault(t)
		}
		res.Out = appendProjected(res.Out, objs, int64(end), int64(len(data)))
		res.Commands++
	}
	res.Done = t
	return res, nil
}

// StrippedParse models the §II profiling experiment that bypasses the OS
// overheads while keeping the same interface: conversion-only cycles, no
// syscalls, no context switches. Used by experiment E4.
func (s *System) StrippedParse(ready units.Time, data []byte, spec ParseSpec, coreIdx int) units.Time {
	pc := s.Cfg.ParseCosts
	return s.Host.ComputeOn(coreIdx, ready, pc.ConvertCyclesPerInputByte(spec.FloatFrac)*float64(len(data)))
}
