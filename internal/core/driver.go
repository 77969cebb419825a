package core

import (
	"fmt"
	"strconv"

	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Host-track trace names and details: a submission's opcode and CID, and
// which degraded path a fallback took.
var (
	hostTrack       = trace.Intern("host")
	submitName      = trace.Intern("submit")
	fallbackName    = trace.Intern("fallback")
	fallbackHost    = trace.Text("path=host")
	fallbackReplica = trace.Text("path=replica")
	submitKind      = trace.RegisterDetail(func(dst []byte, a [3]int64) []byte {
		dst = append(append(append(dst, "op="...), nvme.Opcode(a[0]).String()...), " cid="...)
		return strconv.AppendUint(dst, uint64(uint16(a[1])), 10)
	})
)

func submitDetail(op nvme.Opcode, cid uint16) trace.Detail {
	return trace.Detail{Kind: submitKind, Args: [3]int64{int64(op), int64(cid)}}
}

// queueDepth is the I/O submission queue's entry count. The device model
// runs each command to completion inside its submission, so the queue is
// empty between driver calls; the one ring limit a caller can reach is
// that a single doorbell publishes at most queueDepth-1 entries (one slot
// stays free to tell a full ring from an empty one).
const queueDepth = 1024

// Driver is the extended NVMe driver of Figure 5: it numbers commands,
// charges the protocol costs on the host side (SQE write, doorbell,
// completion reaping), and understands the four Morpheus opcodes.
type Driver struct {
	sys *System
	// nextCID is the last command identifier issued. It is incremented
	// before each use, so CIDs start at 1 and wrap 65535 → 0.
	nextCID uint16

	// SQECycles is the host CPU work to build one 64-byte SQE;
	// DoorbellCycles is the tail-doorbell MMIO write (an uncached PCIe
	// posted write, paid once per doorbell no matter how many SQEs it
	// publishes — the cost SubmitBatch amortizes). A single command costs
	// SQECycles+DoorbellCycles, the 400 cycles the model has always
	// charged. ReapCycles is the per-completion handling cost.
	SQECycles      float64
	DoorbellCycles float64
	ReapCycles     float64

	// inflight counts submitted-but-unreaped commands (the queue-depth
	// gauge). It is a model-level quantity: the simulated host may have
	// many commands outstanding even though the simulator itself runs the
	// device model synchronously.
	inflight int
}

// NewDriver builds a driver for sys's controller.
func NewDriver(sys *System) *Driver {
	return &Driver{
		sys:            sys,
		SQECycles:      250,
		DoorbellCycles: 150,
		ReapCycles:     250,
	}
}

// ResetTimers clears the in-flight command count at the setup/measurement
// boundary, so the queue-depth gauge of a measured run never inherits
// commands a setup phase left unreaped.
func (d *Driver) ResetTimers() { d.inflight = 0 }

// Identify fetches and parses the controller's 4 KiB Identify page.
func (d *Driver) Identify(ready units.Time) (*nvme.IdentifyController, units.Time, error) {
	addr, t, err := d.sys.Host.AllocDMA(ready, nvme.IdentifySize)
	if err != nil {
		return nil, ready, err
	}
	defer d.sys.Host.FreeDMA(addr)
	var page []byte
	ctx := &ssd.CmdContext{
		Cmd:  nvme.Command{Opcode: nvme.OpAdminIdentify, PRP1: uint64(addr), CDW10: 1 /* CNS: controller */},
		Sink: func(p []byte) { page = append(page, p...) },
	}
	p, t := d.SubmitAsync(t, ctx)
	comp, t := d.Wait(t, p)
	if err := comp.Status.Err(); err != nil {
		return nil, t, fmt.Errorf("core: IDENTIFY failed: %w", err)
	}
	id, err := nvme.UnmarshalIdentify(page)
	if err != nil {
		return nil, t, err
	}
	return id, t, nil
}

// Pending is one in-flight command: its completion and the device-side
// completion time.
type Pending struct {
	CID  uint16
	Comp nvme.Completion
	Done units.Time
	// Submitted is when the host issued the command; retry policies use it
	// to check per-command deadlines at batch-flush time.
	Submitted units.Time
	// Op is the command's opcode, kept for per-opcode latency attribution
	// at reap time.
	Op nvme.Opcode
	// Span is the causal trace span allocated at submission (zero when
	// tracing is off).
	Span trace.SpanID
}

// Engine counts completion deliveries: the driver delivers one
// completion per NVMe command. It stays only because bench/rep.go reads Fired
// for its sim.events metric; the bench change that drops sim.events
// deletes it.
type Engine struct{ fired int64 }

// Fired reports the completions delivered since creation or Reset.
func (e *Engine) Fired() int64 { return e.fired }

// Reset zeroes the count at the ResetTimers boundary.
func (e *Engine) Reset() { e.fired = 0 }

// startCommand runs the shared second half of submission: it gives the
// command the next CID, roots its causal chain, hands it to the device at
// tCPU, and delivers its completion. The device model runs each command
// to completion inside Submit, so the completion is delivered right here.
func (d *Driver) startCommand(ready, tCPU units.Time, ctx *ssd.CmdContext) Pending {
	d.nextCID++
	cid := d.nextCID
	ctx.Cmd.CID = cid
	// Root of the command's causal chain: the span is allocated here and
	// rides in the context, so every device-side event the command causes
	// links back to this submission.
	span := d.sys.tracer.Span(hostTrack, submitName, submitDetail(ctx.Cmd.Opcode, cid), 0, ready, tCPU)
	ctx.Span = span
	d.inflight++
	comp, done := d.sys.SSD.Submit(tCPU, ctx)
	d.sys.Engine.fired++
	return Pending{CID: cid, Comp: comp, Done: done, Submitted: ready, Op: ctx.Cmd.Opcode, Span: span}
}

// submit publishes ctxs with one doorbell ring and starts each command
// into ps: the host builds every 64-byte SQE, then advances the tail once.
// It is the one place a submission's host cost is charged — the CPU time,
// the SQEs' memory traffic, counter bumps for the doorbell and the SQEs,
// and one overhead observation per command of its share of the CPU time
// (the driver-side analogue of the paper's OS-overhead measurement).
func (d *Driver) submit(ready units.Time, ctxs []*ssd.CmdContext, ps []Pending) units.Time {
	n := len(ctxs)
	tCPU := d.sys.Host.ComputeCycles(ready, float64(n)*d.SQECycles+d.DoorbellCycles)
	d.sys.Host.MemTraffic(ready, units.Bytes(n)*nvme.CommandSize)
	m := d.sys.metrics
	at := int64(tCPU)
	m.doorbells.Add(at, 1)
	m.sqes.Add(at, int64(n))
	m.coalesced.Add(at, int64(n))
	per := int64(tCPU.Sub(ready)) / int64(n)
	for range n {
		m.submitOverhead.Observe(at, per)
	}
	for i, ctx := range ctxs {
		ps[i] = d.startCommand(ready, tCPU, ctx)
	}
	return tCPU
}

// SubmitAsync submits one command without waiting: a batch of one. The
// host thread pays the submission cost and continues; the returned
// Pending carries the device-side completion time for a later Wait.
func (d *Driver) SubmitAsync(ready units.Time, ctx *ssd.CmdContext) (Pending, units.Time) {
	var p [1]Pending
	t := d.submit(ready, []*ssd.CmdContext{ctx}, p[:])
	return p[0], t
}

// SubmitBatch coalesces a batch of commands into one doorbell ring: the
// host builds every SQE, then advances the tail once. The CPU cost is
// N·SQECycles + one DoorbellCycles, so the per-command submission
// overhead falls toward SQECycles as the batch grows — the submission-side
// mirror of ReapWindow's reap amortization. A batch larger than one
// doorbell can publish (queueDepth-1 commands) fails with
// nvme.ErrQueueFull before any CID is consumed.
func (d *Driver) SubmitBatch(ready units.Time, ctxs []*ssd.CmdContext) ([]Pending, units.Time, error) {
	if len(ctxs) == 0 {
		return nil, ready, nil
	}
	if len(ctxs) > queueDepth-1 {
		return nil, ready, fmt.Errorf("core: submit batch of %d: %w", len(ctxs), nvme.ErrQueueFull)
	}
	ps := make([]Pending, len(ctxs))
	return ps, d.submit(ready, ctxs, ps), nil
}

// reaped accounts one command leaving the queue: the per-opcode latency
// histogram gets the submit-to-device-completion time, and the inflight
// count drops.
func (d *Driver) reaped(p Pending) {
	d.inflight--
	d.sys.metrics.opLatency(p.Op).Observe(int64(p.Done), int64(p.Done.Sub(p.Submitted)))
}

// Wait blocks the host thread until the pending command completes — a
// reap of that one command — and returns the completion.
func (d *Driver) Wait(ready units.Time, p Pending) (nvme.Completion, units.Time) {
	ps := [1]Pending{p}
	_, t := d.ReapWindow(ready, ps[:], 1)
	return p.Comp, t
}

// Submit is the synchronous convenience: submit then wait. A single
// command always fits the queue, so the error is always nil.
func (d *Driver) Submit(ready units.Time, ctx *ssd.CmdContext) (nvme.Completion, units.Time, error) {
	p, t := d.SubmitAsync(ready, ctx)
	comp, t := d.Wait(t, p)
	return comp, t, nil
}

// ReapWindow waits until at least the oldest need commands of ps have
// completed, then reaps that prefix — plus, completion batching, any
// further commands in FIFO order whose completions had already arrived by
// the wake time, so one blocking wait drains every CQE the interrupt
// delivered. It returns how many commands were reaped (>= need, <=
// len(ps)) and the host time after reaping. This is what lets a bounded
// in-flight window admit new submissions as soon as the oldest
// completions drain, instead of barriering on the whole batch.
func (d *Driver) ReapWindow(ready units.Time, ps []Pending, need int) (int, units.Time) {
	if len(ps) == 0 || need <= 0 {
		return 0, ready
	}
	if need > len(ps) {
		need = len(ps)
	}
	var latest units.Time
	for _, p := range ps[:need] {
		if p.Done > latest {
			latest = p.Done
		}
	}
	t := ready
	wake := ready
	if latest > ready {
		wake = latest
	}
	// Opportunistic extension: every further command already complete by
	// the wake time reaps in the same pass, still in FIFO order.
	n := need
	for n < len(ps) && ps[n].Done <= wake {
		n++
	}
	if latest > ready {
		t = d.sys.Host.BlockingWait(ready, latest)
	}
	for _, p := range ps[:n] {
		t = d.sys.Host.ComputeCycles(t, d.ReapCycles)
		d.reaped(p)
	}
	d.sys.Host.MemTraffic(t, units.Bytes(n)*nvme.CompletionSize)
	d.sys.sampleGauges(t)
	return n, t
}
