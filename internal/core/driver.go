package core

import (
	"fmt"

	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Driver is the extended NVMe driver of Figure 5: it owns the queue pair,
// charges the protocol costs on the host side (SQE write, doorbell,
// completion reaping), and understands the four Morpheus opcodes.
type Driver struct {
	sys *System
	qp  *nvme.QueuePair

	// SQECycles is the host CPU work to build one 64-byte SQE in the ring;
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

// NewDriver builds a driver with one I/O queue pair of the given depth.
func NewDriver(sys *System, depth int) *Driver {
	return &Driver{
		sys:            sys,
		qp:             nvme.NewQueuePair(1, depth),
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
	comp, t, err := d.Submit(t, ctx)
	if err != nil {
		return nil, t, err
	}
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

// popSubmitted advances the device-visible SQ head past one just-pushed
// entry. The entry was pushed by the caller, so the ring cannot be empty;
// a failure means the SQ head/tail desynced, and returning an error would
// leak the CID and ring slot and leave the pair desynced permanently.
// Like the completion-post path, that is a broken model invariant, not a
// recoverable condition.
func (d *Driver) popSubmitted() {
	if _, err := d.qp.SQ.Pop(); err != nil {
		panic(fmt.Sprintf("core: submission ring desync: %v", err))
	}
}

// deliverCompletion posts and reaps the command's CQE as an engine event
// at the device completion time, delivered when the host waits for the
// command or a shard drains its window past it. The post/reap pair is
// net-zero ring occupancy, so deferral can neither fill the CQ nor change
// any result; a failure is a broken model invariant, not a recoverable
// condition.
func (d *Driver) deliverCompletion(comp nvme.Completion, done units.Time) {
	eng := d.sys.Engine
	if now := eng.Clock().Now(); done < now {
		done = now
	}
	eng.Schedule(done, func(units.Time) {
		if err := d.qp.Complete(comp.CID, comp.Status, comp.Result); err != nil {
			panic(fmt.Sprintf("core: completion post: %v", err))
		}
		if _, err := d.qp.CQ.Reap(); err != nil {
			panic(fmt.Sprintf("core: completion reap: %v", err))
		}
	})
}

// recordSubmit attributes one doorbell's host-side cost: counter bumps
// for the doorbell and the SQEs it published, and one overhead
// observation per command of its share of the submission CPU time —
// the driver-side analogue of the paper's OS-overhead measurement.
func (d *Driver) recordSubmit(ready, done units.Time, n int) {
	m := d.sys.Metrics
	at := int64(done)
	m.AddAt(stats.HostDoorbells, at, 1)
	m.AddAt(stats.HostSQEs, at, int64(n))
	m.AddAt(stats.HostCoalesced, at, int64(n))
	per := int64(done.Sub(ready)) / int64(n)
	for i := 0; i < n; i++ {
		m.ObserveLatency(stats.HostSubmitOverhead, at, per)
	}
}

// startCommand runs the shared post-push half of submission: it syncs the
// device-visible ring, roots the command's causal chain, hands the
// command to the device at tCPU, and schedules its interrupt delivery.
func (d *Driver) startCommand(ready, tCPU units.Time, cid uint16, ctx *ssd.CmdContext) Pending {
	d.popSubmitted()
	// Root of the command's causal chain: the span is allocated here and
	// rides in the context, so every device-side event the command causes
	// links back to this submission.
	span := d.sys.tracer.NextSpan()
	ctx.Span = span
	if span != 0 {
		d.sys.tracer.RecordSpan("host", "submit",
			fmt.Sprintf("op=%s cid=%d", ctx.Cmd.Opcode, cid), span, 0, ready, tCPU)
	}
	d.inflight++
	comp, done := d.sys.SSD.Submit(tCPU, ctx)
	d.deliverCompletion(comp, done)
	return Pending{CID: cid, Comp: comp, Done: done, Submitted: ready, Op: ctx.Cmd.Opcode, Span: span}
}

// SubmitAsync submits one command without waiting: the host thread pays
// the submission cost and continues; the returned Pending carries the
// device-side completion time for a later Wait.
func (d *Driver) SubmitAsync(ready units.Time, ctx *ssd.CmdContext) (Pending, units.Time, error) {
	// Host builds the 64-byte SQE in the ring and writes the doorbell.
	cid, err := d.qp.Submit(ctx.Cmd)
	if err != nil {
		return Pending{}, ready, fmt.Errorf("core: submit: %w", err)
	}
	ctx.Cmd.CID = cid
	tCPU := d.sys.Host.ComputeCycles(ready, d.SQECycles+d.DoorbellCycles)
	d.sys.Host.MemTraffic(ready, nvme.CommandSize)
	d.recordSubmit(ready, tCPU, 1)
	return d.startCommand(ready, tCPU, cid, ctx), tCPU, nil
}

// SubmitBatch coalesces a batch of commands into one doorbell ring: the
// host builds every SQE in the ring, then advances the tail once. The CPU
// cost is N·SQECycles + one DoorbellCycles, so the per-command submission
// overhead falls toward SQECycles as the batch grows — the submission-side
// mirror of ReapWindow's reap amortization. All-or-nothing on a full ring
// (no CID is consumed), so the caller can reap and retry the same batch.
func (d *Driver) SubmitBatch(ready units.Time, ctxs []*ssd.CmdContext) ([]Pending, units.Time, error) {
	if len(ctxs) == 0 {
		return nil, ready, nil
	}
	cmds := make([]nvme.Command, len(ctxs))
	for i, ctx := range ctxs {
		cmds[i] = ctx.Cmd
	}
	cids, err := d.qp.SubmitBatch(cmds)
	if err != nil {
		return nil, ready, fmt.Errorf("core: submit batch of %d: %w", len(ctxs), err)
	}
	tCPU := d.sys.Host.ComputeCycles(ready, float64(len(ctxs))*d.SQECycles+d.DoorbellCycles)
	d.sys.Host.MemTraffic(ready, units.Bytes(len(ctxs))*nvme.CommandSize)
	d.recordSubmit(ready, tCPU, len(ctxs))
	ps := make([]Pending, len(ctxs))
	for i, ctx := range ctxs {
		ctx.Cmd.CID = cids[i]
		ps[i] = d.startCommand(ready, tCPU, cids[i], ctx)
	}
	return ps, tCPU, nil
}

// reaped accounts one command leaving the queue: its completion event
// (and any earlier one still queued) fires, the per-opcode latency
// histogram gets the submit-to-device-completion time, and the inflight
// count drops. The drain reaches the clock too, since deliverCompletion
// files a completion that lies behind the clock at the clock.
func (d *Driver) reaped(p Pending) {
	eng := d.sys.Engine
	eng.RunUntil(max(p.Done, eng.Clock().Now()))
	d.inflight--
	d.sys.Metrics.ObserveLatency("nvme."+p.Op.String()+".latency_ps",
		int64(p.Done), int64(p.Done.Sub(p.Submitted)))
}

// Wait blocks the host thread until the pending command completes,
// charging the context switches and interrupt of a blocking wait plus the
// completion-reaping CPU work, and returns the completion.
func (d *Driver) Wait(ready units.Time, p Pending) (nvme.Completion, units.Time) {
	var t units.Time
	if p.Done > ready {
		t = d.sys.Host.BlockingWait(ready, p.Done)
	} else {
		// Already complete: polled from the CQ without blocking.
		t = ready
	}
	t = d.sys.Host.ComputeCycles(t, d.ReapCycles)
	d.sys.Host.MemTraffic(t, nvme.CompletionSize)
	d.reaped(p)
	d.sys.sampleGauges(t)
	return p.Comp, t
}

// Submit is the synchronous convenience: submit then wait.
func (d *Driver) Submit(ready units.Time, ctx *ssd.CmdContext) (nvme.Completion, units.Time, error) {
	p, t, err := d.SubmitAsync(ready, ctx)
	if err != nil {
		return nvme.Completion{}, ready, err
	}
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
