package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/nvme"
	"morpheus/internal/pcie"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// StorageApp is a device function as the programmer wrote it: MorphC
// source plus an optional native continuation used by sampled execution.
// The paper's compiler emits host and device binaries from one source
// file; here Compile produces the device image and the runtime plays the
// role of the inserted host-side glue.
type StorageApp struct {
	Name string
	// Source is the MorphC program text.
	Source string
	// EntryPoint selects the StorageApp function when Source declares
	// several ("" = the only one).
	EntryPoint string
	// Native is the data-plane continuation sampled execution runs (nil
	// forces exact interpretation). It is shared by every invocation, so
	// it must be stateless (see ssd.NativeFunc).
	Native ssd.NativeFunc

	once     sync.Once
	compiled *mvm.Program
	image    []byte // compiled's MINIT image
	compErr  error
}

// Compile compiles (once) and returns the device program.
func (a *StorageApp) Compile() (*mvm.Program, error) {
	a.compile()
	return a.compiled, a.compErr
}

// Image compiles (once) and returns the device program's MINIT image. The
// image is shared by every invocation and must not be modified.
func (a *StorageApp) Image() ([]byte, error) {
	a.compile()
	return a.image, a.compErr
}

func (a *StorageApp) compile() {
	a.once.Do(func() {
		a.compiled, a.compErr = morphc.Compile(a.Source, a.EntryPoint)
		if a.compErr == nil {
			a.image, a.compErr = a.compiled.MarshalBinary()
		}
	})
}

// Target is a DMA destination for StorageApp output: host DRAM (default)
// or GPU device memory over NVMe-P2P.
type Target struct {
	Addr  pcie.Addr
	OnGPU bool
}

// ServePath identifies which datapath ultimately produced the objects.
type ServePath int

// The serve paths, from healthy to most degraded.
const (
	// PathMorpheus: the StorageApp ran on the SSD (possibly after train
	// replays).
	PathMorpheus ServePath = iota
	// PathHostFallback: the device path failed or is unsupported; the host
	// CPU parsed the raw file through conventional READs.
	PathHostFallback
	// PathReplicaFallback: the local media lost the data; the raw file was
	// re-fetched from a replica and parsed on the host.
	PathReplicaFallback
)

// String names the path for reports.
func (p ServePath) String() string {
	switch p {
	case PathMorpheus:
		return "morpheus"
	case PathHostFallback:
		return "host-fallback"
	case PathReplicaFallback:
		return "replica-fallback"
	}
	return fmt.Sprintf("ServePath(%d)", int(p))
}

// Fallback describes the degraded host path InvokeStorageApp may fall
// back to when the device path keeps failing.
type Fallback struct {
	// Parser builds a fresh conventional-path deserializer per attempt
	// (the parsers are stateful closures, so a factory is required).
	Parser func() HostParser
	// Spec is the host parse cost model for this application.
	Spec ParseSpec
	// CoreIdx pins the parse loop to a host core.
	CoreIdx int
}

// InvokeResult reports one StorageApp run.
type InvokeResult struct {
	// Out is the data-plane shadow of the object bytes delivered to the
	// destination (or produced by the host parser on a fallback path),
	// owned by the caller. It is InvokeOptions.Into[:n] when Into has room
	// for all n bytes; otherwise it is a fresh buffer whose capacity may
	// exceed its length by the projection slack (see appendProjected).
	Out []byte
	// RetVal is the MDEINIT completion value (device path only).
	RetVal uint32
	// Done is when the host thread observed the final completion.
	Done units.Time
	// Commands is the number of NVMe commands issued by the serving path.
	Commands int
	// CyclesPerByte is the measured embedded-core cost (device path only).
	CyclesPerByte float64
	// Path is which datapath served the request.
	Path ServePath
	// Attempts counts device-path tries (a clean first run is 1; zero
	// means the device path was never attempted, e.g. no Morpheus
	// support).
	Attempts int
}

// InvokeOptions parameterizes InvokeStorageApp.
type InvokeOptions struct {
	App  *StorageApp
	File *File
	Args []int64
	// Dest is where objects go. A zero Target allocates a host DMA
	// buffer; set OnGPU for the NVMe-P2P path (requires EnableP2P).
	Dest Target
	// Fallback, when set, lets the runtime serve the request on the host
	// after the device path fails (degraded mode). Fallback output always
	// lands in host memory, even when Dest.OnGPU was requested.
	Fallback *Fallback
	// Into is caller-owned memory for InvokeResult.Out. Every serving path
	// (each train attempt, the host fallback, the replica re-fetch) starts
	// writing at Into[:0], so when cap(Into) covers the output, Out is
	// Into[:n] and nothing is allocated or cleared for it; otherwise Out is
	// a fresh buffer and Into is left partly overwritten. Nil means a
	// fresh buffer.
	Into []byte
}

// InvokeStorageApp runs the full §V-B protocol on behalf of one host
// thread: ms_stream_create, MINIT, a pipelined train of MREADs split at
// the MDTS, and MDEINIT. Failed trains are replayed with a fresh instance
// under the retry policy (an MREAD stream is stateful, so recovery is
// all-or-nothing); when the device path is exhausted or unsupported and a
// Fallback is configured, the request is served by the conventional host
// path instead. It returns when the host thread observed the final
// completion of whichever path served.
func (s *System) InvokeStorageApp(ready units.Time, opt InvokeOptions) (*InvokeResult, error) {
	return s.invoke(ready, opt, DefaultRetryPolicy())
}

// invoke is InvokeStorageApp under retry policy rp.
func (s *System) invoke(ready units.Time, opt InvokeOptions, rp RetryPolicy) (*InvokeResult, error) {
	if opt.App == nil || opt.File == nil {
		return nil, fmt.Errorf("core: InvokeStorageApp needs an app and a file")
	}
	t := ready
	var lastErr error
	attempts := 0
	if !s.Identify.Morpheus.Supported {
		lastErr = ErrNoMorpheus
	} else {
		backoff := rp.Backoff
		for attempts = 1; ; attempts++ {
			res, t2, err := s.invokeMorpheusOnce(t, opt, rp)
			t = t2
			if err == nil {
				res.Path = PathMorpheus
				res.Attempts = attempts
				s.recordInvoke(ready, res)
				return res, nil
			}
			// Chain across train replays so the first failure's class (a
			// media error, say) stays visible behind the last one's.
			if lastErr != nil {
				err = fmt.Errorf("%w (earlier attempt: %w)", err, lastErr)
			}
			lastErr = err
			if attempts >= rp.MaxAttempts || !retryableInvoke(err) {
				break
			}
			// Replaying a train needs a fresh MINIT; the backoff models
			// the host error handling before the re-submission.
			s.metrics.retries.Add(int64(t), 1)
			t = t.Add(backoff)
			backoff = rp.next(backoff)
		}
	}
	if opt.Fallback == nil || !fallbackWorthy(lastErr) {
		return nil, lastErr
	}
	res, err := s.invokeFallback(t, opt, lastErr, attempts)
	if err == nil {
		s.recordInvoke(ready, res)
	}
	return res, err
}

// recordInvoke charges one served invocation into the latency histograms,
// attributed to the path that ultimately served it.
func (s *System) recordInvoke(ready units.Time, res *InvokeResult) {
	s.metrics.invoke[res.Path].Observe(int64(res.Done), int64(res.Done.Sub(ready)))
	s.metrics.attempts.Observe(int64(res.Done), int64(res.Attempts))
}

// invokeMorpheusOnce runs one complete MINIT/MREAD*/MDEINIT train. On any
// failure it aborts the instance (MDEINIT) and unpins every host buffer it
// allocated, so a failed attempt leaves no residue; the returned time is
// when the host finished cleaning up.
func (s *System) invokeMorpheusOnce(ready units.Time, opt InvokeOptions, rp RetryPolicy) (res *InvokeResult, end units.Time, err error) {
	image, err := opt.App.Image()
	if err != nil {
		return nil, ready, err
	}
	_, t := s.CreateStream(ready, opt.File)

	// Resolve the destination buffer.
	dest := opt.Dest
	destSelfAlloc := false
	if dest.Addr == 0 {
		if dest.OnGPU {
			if s.GPU == nil {
				return nil, t, fmt.Errorf("core: no GPU in this system")
			}
			if !s.GPU.PeerBAREnabled() {
				return nil, t, fmt.Errorf("core: GPU destination requires EnableP2P (the BAR window is unmapped)")
			}
			a, err := s.GPU.Alloc(2 * opt.File.Size)
			if err != nil {
				return nil, t, err
			}
			dest.Addr = a
		} else {
			a, t2, err := s.Host.AllocDMA(t, 2*opt.File.Size)
			if err != nil {
				return nil, t, err
			}
			dest.Addr, t = a, t2
			destSelfAlloc = true
		}
	}

	// Stage the code image in a pinned host buffer. The image is only
	// needed until MINIT copies it to I-SRAM, but the abort paths below
	// also unpin it, so track it with the attempt.
	codeAddr, t, err := s.Host.AllocDMA(t, units.Bytes(len(image)))
	if err != nil {
		return nil, t, err
	}
	id := s.NextInstanceID()
	minitDone := false
	defer func() {
		if err == nil {
			s.Host.FreeDMA(codeAddr)
			return
		}
		// Failed attempt: abort the instance and unpin everything this
		// attempt allocated. The firmware reaps trapped instances itself,
		// so the abort MDEINIT tolerates "no such instance".
		if minitDone {
			comp, t2, aerr := s.Driver.Submit(end, &ssd.CmdContext{Cmd: nvme.BuildMDeinit(0, id)})
			if aerr == nil {
				end = t2
				if serr := comp.Status.Err(); serr != nil && !errors.Is(serr, nvme.ErrNoInstance) {
					err = fmt.Errorf("%w (abort MDEINIT also failed: %w)", err, serr)
				}
			}
		}
		s.Host.FreeDMA(codeAddr)
		if destSelfAlloc {
			s.Host.FreeDMA(dest.Addr)
		}
	}()

	comp, t, err := s.Driver.SubmitRetry(t, &s.metrics.minitRetry, rp, func() *ssd.CmdContext {
		return &ssd.CmdContext{
			Cmd:    nvme.BuildMInit(0, uint64(codeAddr), uint32(len(image)), id, uint32(len(opt.Args)), 0),
			Code:   image,
			Args:   opt.Args,
			Native: opt.App.Native,
		}
	})
	end = t
	if err != nil {
		// A deadline-abandoned MINIT may still have landed on the device
		// and claimed a slot; the abort below reaps it (and tolerates
		// "no such instance" for rejections that never created one).
		minitDone = errors.Is(err, ErrDeadline)
		return nil, end, err
	}
	minitDone = true

	// Pipelined MREAD train, batched at submission and at reaping: chunks
	// are staged into BatchDepth-sized doorbell batches (one tail-doorbell
	// ring publishes the whole batch), and a WindowDepth-bounded in-flight
	// window decouples submission from completion — before each batch the
	// train reaps just enough of the oldest completions to make room,
	// rather than draining everything it has in flight.
	res = &InvokeResult{Out: opt.Into[:0], Commands: 1}
	size := int64(opt.File.Size)
	dstAddr := uint64(dest.Addr)
	batch := s.Cfg.BatchDepth
	if batch <= 0 {
		batch = 32
	}
	window := s.Cfg.WindowDepth
	if window <= 0 {
		window = 2 * batch
	}
	if batch > window {
		batch = window
	}
	var pending []Pending
	var stage []*ssd.CmdContext
	// prevDone is when the train's last reaped command completed.
	var prevDone units.Time
	// checkReaped inspects a reaped prefix. Every failed-status and every
	// expired command is flagged for the tail sampler (a failed train must
	// stay visible in a sampled trace), and every expired command counts
	// into the timeout counter — not just the first one hit. The first
	// failure, in reap order, becomes the train's error. A command's
	// deadline runs from its submission or from the completion of the
	// train command before it, whichever is later: the chunks queued ahead
	// of it in its own train are not its latency.
	checkReaped := func(ps []Pending) error {
		var firstErr error
		expired := int64(0)
		for _, p := range ps {
			start := max(p.Submitted, prevDone)
			prevDone = p.Done
			if serr := p.Comp.Status.Err(); serr != nil {
				s.tracer.Flag(p.Span)
				if firstErr == nil {
					firstErr = statusErr("MREAD", p.Comp.Status)
				}
				continue
			}
			if rp.expired(start, p.Done) {
				expired++
				s.tracer.Flag(p.Span)
				if firstErr == nil {
					firstErr = fmt.Errorf("core: MREAD took %v, past its %v deadline: %w",
						p.Done.Sub(start), rp.Deadline, ErrDeadline)
				}
			}
		}
		if expired > 0 {
			s.metrics.timeouts.Add(int64(t), expired)
		}
		return firstErr
	}
	// reap drains at least need of the oldest in-flight commands (plus any
	// whose completions already arrived) and checks them.
	reap := func(need int) error {
		n, t2 := s.Driver.ReapWindow(t, pending, need)
		t = t2
		end = t
		rerr := checkReaped(pending[:n])
		pending = append(pending[:0], pending[n:]...)
		return rerr
	}
	// failTrain reaps whatever is still in flight so a failed attempt
	// leaves no unreaped commands behind (queue-depth accounting, latency
	// attribution, sampler flags), keeping the first error.
	failTrain := func(ferr error) error {
		if len(pending) > 0 {
			if derr := reap(len(pending)); derr != nil && ferr == nil {
				ferr = derr
			}
		}
		return ferr
	}
	// submitStage publishes the staged chunks with one doorbell, first
	// reaping the oldest completions if the window lacks room.
	submitStage := func() error {
		if len(stage) == 0 {
			return nil
		}
		if over := len(pending) + len(stage) - window; over > 0 {
			if rerr := reap(over); rerr != nil {
				return rerr
			}
		}
		ps, t2, serr := s.Driver.SubmitBatch(t, stage)
		if serr != nil {
			return serr
		}
		t = t2
		end = t
		res.Commands += len(ps)
		pending = append(pending, ps...)
		stage = stage[:0]
		return nil
	}
	var offset int64
	for _, ch := range s.chunksOf(opt.File) {
		chunkBytes := int64(ch.nlb) * nvme.LBASize
		valid := size - offset
		if valid > chunkBytes {
			valid = chunkBytes
		}
		offset += chunkBytes
		// The controller calls Sink only for chunks with output, so each
		// chunk's sink carries its own input watermark.
		upto := min(offset, size)
		stage = append(stage, &ssd.CmdContext{
			Cmd:        nvme.BuildMRead(0, ch.slba, ch.nlb, id, dstAddr),
			Sink:       func(p []byte) { res.Out = appendProjected(res.Out, p, upto, size) },
			LastChunk:  ch.last,
			ValidBytes: int(valid),
		})
		dstAddr += uint64(s.Cfg.SSD.MDTS) * 2 // reserve worst-case expansion
		if len(stage) >= batch {
			if err = submitStage(); err != nil {
				err = failTrain(err)
				return nil, end, err
			}
		}
	}
	if err = submitStage(); err == nil && len(pending) > 0 {
		err = reap(len(pending))
	}
	if err != nil {
		err = failTrain(err)
		return nil, end, err
	}

	// MDEINIT: collect the return value, free device resources.
	if cpb, ok := s.SSD.InstanceCPB(id); ok {
		res.CyclesPerByte = cpb
	}
	comp, t, err = s.Driver.Submit(t, &ssd.CmdContext{Cmd: nvme.BuildMDeinit(0, id)})
	end = t
	if err != nil {
		return nil, end, err
	}
	if serr := comp.Status.Err(); serr != nil {
		err = statusErr("MDEINIT", comp.Status)
		minitDone = false // the deinit already ran; don't abort again
		return nil, end, err
	}
	res.Commands++
	res.RetVal = comp.Result
	res.Done = t
	return res, end, nil
}

// projectionSlack is the headroom appendProjected adds to a projected
// size, as a right shift: 1/32 of it.
const projectionSlack = 5

// appendProjected appends p to dst, the output so far of a stream whose
// first upto of total input bytes produced dst+p. When p fits in dst's
// capacity it is a plain append. Otherwise dst is reallocated once, to
// the whole output projected at the ratio seen so far plus 1/32 slack,
// and never to less than dst+p; once upto reaches total the output is
// complete and the size is exact. A stream whose chunks expand at a steady
// ratio is thus copied into its result once, where append's growth
// policy would copy it several times over.
func appendProjected(dst, p []byte, upto, total int64) []byte {
	need := len(dst) + len(p)
	if need <= cap(dst) {
		return append(dst, p...)
	}
	upto = max(upto, 1)
	size := need
	if total > upto {
		// need × total / upto in 128 bits: need can be twice a file and
		// total the device's capacity, so the product can pass 2^63. With
		// total > upto the projection is at least need.
		hi, lo := bits.Mul64(uint64(need), uint64(total))
		if hi < uint64(upto) { // else the quotient overflows 64 bits
			if proj, _ := bits.Div64(hi, lo, uint64(upto)); proj <= math.MaxInt/2 {
				size = int(proj + proj>>projectionSlack)
			}
		}
	}
	out := make([]byte, need, size)
	copy(out[copy(out, dst):], p)
	return out
}

// invokeFallback serves an invocation on the degraded host path: first
// the conventional READ+parse loop against the local SSD, and — if the
// local media has lost the data — a re-fetch of the file's replica parsed
// the same way. cause is the device-path error that triggered degradation.
func (s *System) invokeFallback(ready units.Time, opt InvokeOptions, cause error, attempts int) (*InvokeResult, error) {
	fb := opt.Fallback
	s.metrics.hostFallbacks.Add(int64(ready), 1)
	// Degraded mode is always trace-worthy: the marker both shows up on
	// the host track and tells the tail sampler to keep the tree.
	s.tracer.Flag(s.tracer.Span(hostTrack, fallbackName, fallbackHost, 0, ready, ready))
	res, derr := s.DeserializeConventional(ready, opt.File, fb.Parser(), fb.Spec, fb.CoreIdx, opt.Into)
	if derr == nil {
		return &InvokeResult{
			Out: res.Out, Done: res.Done, Commands: res.Commands,
			Path: PathHostFallback, Attempts: attempts,
		}, nil
	}
	t := ready
	if res != nil && res.Done > t {
		t = res.Done
	}
	// The conventional path reads the same flash pages; only media loss
	// justifies escalating to the replica.
	mediaLoss := errors.Is(derr, ErrMediaFailure) || errors.Is(derr, nvme.ErrLBAOutOfRange)
	if !mediaLoss {
		return nil, fmt.Errorf("core: host fallback (after %w) failed: %w", cause, derr)
	}
	// Route the re-fetch. With a fetcher installed (array shards), the
	// read happens on the remote system holding the replica, charging its
	// queues and clock; the local system then pays the replica transport
	// and the parse. The fetcher is authoritative — a miss must surface,
	// not silently serve from the magic local copy. Without one, the
	// single-system local copy keeps its exact historical timing (rt == t).
	var (
		data []byte
		ok   bool
		rt   = t
	)
	if s.replicaFetcher != nil {
		data, rt, ok = s.replicaFetcher.FetchReplica(t, opt.File.Name)
		if rt < t {
			rt = t
		}
	} else {
		data, ok = s.ReplicaData(opt.File.Name)
	}
	if !ok {
		return nil, fmt.Errorf("core: host fallback failed (%w) and %q has no replica: %w", derr, opt.File.Name, ErrMediaFailure)
	}
	s.metrics.replicaFallbacks.Add(int64(t), 1)
	s.tracer.Flag(s.tracer.Span(hostTrack, fallbackName, fallbackReplica, 0, t, rt))
	rres, rerr := s.DeserializeFromMedium(rt, s.ReplicaMedium(), data, fb.Parser(), fb.Spec, fb.CoreIdx, opt.Into)
	if rerr != nil {
		return nil, rerr
	}
	return &InvokeResult{
		Out: rres.Out, Done: rres.Done, Commands: rres.Commands,
		Path: PathReplicaFallback, Attempts: attempts,
	}, nil
}

// SerializeResult reports one MWRITE-driven serialization run.
type SerializeResult struct {
	Written []byte // the bytes the StorageApp produced and stored on flash
	RetVal  uint32
	Done    units.Time
}

// SerializeStorageApp runs the MWRITE direction: the host streams object
// bytes to the device, the StorageApp transforms them (e.g. formats text),
// and the result is written to the file's extent. This is the
// serialization support §III mentions; the paper's workloads barely
// exercise it, but the machinery is symmetric. An MWRITE stream is
// stateful, so a mid-train failure aborts the instance and surfaces a
// typed error rather than retrying blind.
func (s *System) SerializeStorageApp(ready units.Time, app *StorageApp, f *File, data []byte, args []int64) (res *SerializeResult, err error) {
	if !s.Identify.Morpheus.Supported {
		return nil, ErrNoMorpheus
	}
	image, err := app.Image()
	if err != nil {
		return nil, err
	}
	_, t := s.CreateStream(ready, f)
	srcAddr, t, err := s.Host.AllocDMA(t, units.Bytes(len(data))+units.Bytes(len(image)))
	if err != nil {
		return nil, err
	}
	id := s.NextInstanceID()
	minitDone := false
	defer func() {
		s.Host.FreeDMA(srcAddr)
		if err == nil || !minitDone {
			return
		}
		comp, t2, aerr := s.Driver.Submit(t, &ssd.CmdContext{Cmd: nvme.BuildMDeinit(0, id)})
		if aerr == nil {
			t = t2
			if serr := comp.Status.Err(); serr != nil && !errors.Is(serr, nvme.ErrNoInstance) {
				err = fmt.Errorf("%w (abort MDEINIT also failed: %w)", err, serr)
			}
		}
	}()
	initCtx := &ssd.CmdContext{
		Cmd:  nvme.BuildMInit(0, uint64(srcAddr), uint32(len(image)), id, uint32(len(args)), 0),
		Code: image,
		Args: args,
	}
	comp, t, err := s.Driver.Submit(t, initCtx)
	if err != nil {
		return nil, err
	}
	if serr := comp.Status.Err(); serr != nil {
		err = statusErr("MINIT", comp.Status)
		return nil, err
	}
	minitDone = true
	res = &SerializeResult{}
	mdts := int64(s.Cfg.SSD.MDTS)
	slba := f.SLBA
	for off := int64(0); off < int64(len(data)) || off == 0; off += mdts {
		end := off + mdts
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chunk := data[off:end]
		nlb := uint32((len(chunk) + nvme.LBASize - 1) / nvme.LBASize)
		if nlb == 0 {
			nlb = 1
		}
		ctx := &ssd.CmdContext{
			Cmd:       nvme.BuildMWrite(0, slba, nlb, id, uint64(srcAddr)),
			Data:      chunk,
			LastChunk: end == int64(len(data)),
			Sink:      func(p []byte) { res.Written = append(res.Written, p...) },
		}
		comp, t2, serr := s.Driver.Submit(t, ctx)
		if serr != nil {
			err = serr
			return nil, err
		}
		t = t2
		if serr := comp.Status.Err(); serr != nil {
			err = statusErr("MWRITE", comp.Status)
			return nil, err
		}
		slba += uint64((len(res.Written) + nvme.LBASize - 1) / nvme.LBASize)
		if end == int64(len(data)) {
			break
		}
	}
	deinit := &ssd.CmdContext{Cmd: nvme.BuildMDeinit(0, id)}
	comp, t, err = s.Driver.Submit(t, deinit)
	if err != nil {
		return nil, err
	}
	if serr := comp.Status.Err(); serr != nil {
		err = statusErr("MDEINIT", comp.Status)
		minitDone = false
		return nil, err
	}
	res.RetVal = comp.Result
	res.Done = t
	s.PhaseLatency(stats.PhaseSerialize).Observe(int64(t), int64(t.Sub(ready)))
	return res, nil
}

// EnableP2P programs the GPU BAR into the PCIe switch (the NVMe-P2P module
// of §IV-C). After this, InvokeStorageApp with Dest.OnGPU delivers objects
// device-to-device, bypassing host DRAM entirely.
func (s *System) EnableP2P() error {
	if s.GPU == nil {
		return fmt.Errorf("core: system has no GPU")
	}
	return s.GPU.EnablePeerBAR()
}
