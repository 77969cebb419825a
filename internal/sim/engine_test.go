package sim_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"morpheus/internal/core"
	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// Completion delivery is inline: the driver posts and reaps each
// command's CQE inside the submission call, and core.Engine counts the
// deliveries. These tests drive a system's driver through scripts of
// submissions, windowed reaps and blocking waits and hold it, step by
// step, to a model that is a FIFO of outstanding commands:
//
//   - every command is delivered exactly once, at submission, so Fired()
//     equals the commands submitted since the last ResetTimers (and the
//     device's own nvme.commands counter) before any of them is reaped;
//   - each Pending carries its own successful CQE, and the CIDs run
//     consecutively in submission order;
//   - ReapWindow reaps the oldest need commands plus every further one,
//     in FIFO order, already done by the wake time;
//   - every reap adds its submit-to-completion time to the READ latency
//     histogram and lowers the queue-depth gauge to what is outstanding.

// engineFileLBAs sizes the staged file the scripts read from.
const engineFileLBAs = 16

// deliveryHarness drives one system through a script and checks every
// step against the model.
type deliveryHarness struct {
	t   testing.TB
	sys *core.System
	f   *core.File
	buf uint64

	now       units.Time     // latest host time any operation returned
	out       []core.Pending // submitted, unreaped, in submission order
	lastCID   uint16         // CID of the latest submission
	anyCID    bool           // whether there has been one
	submitted int64          // commands since the last ResetTimers
	reaped    int64
	latSum    int64 // Σ Done-Submitted over reaped commands
}

func newDeliveryHarness(t testing.TB) *deliveryHarness {
	t.Helper()
	cfg := core.DefaultSystemConfig()
	cfg.SSD.Geometry.BlocksPerPlane = 64 // keep test arrays small
	cfg.WithGPU = false
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, engineFileLBAs*nvme.LBASize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	f, err := sys.WriteFile("engine", data)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := sys.Host.AllocDMA(0, units.Bytes(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	h := &deliveryHarness{t: t, sys: sys, f: f, buf: uint64(addr)}
	h.check("setup")
	return h
}

// read builds a READ of a few LBAs of the staged file; seed picks which.
func (h *deliveryHarness) read(seed int) *ssd.CmdContext {
	off := uint64(seed % engineFileLBAs)
	nlb := uint32(1 + seed%5)
	if rest := uint32(engineFileLBAs - off); nlb > rest {
		nlb = rest
	}
	return &ssd.CmdContext{Cmd: nvme.BuildRead(0, h.f.SLBA+off, nlb, h.buf)}
}

// submit issues n reads at ready: one SubmitAsync when n is 1, one
// SubmitBatch doorbell otherwise. Each command must be delivered before
// the call returns.
func (h *deliveryHarness) submit(ready units.Time, n, seed int) {
	h.t.Helper()
	var ps []core.Pending
	var tCPU units.Time
	if n == 1 {
		p, t := h.sys.Driver.SubmitAsync(ready, h.read(seed))
		ps, tCPU = []core.Pending{p}, t
	} else {
		ctxs := make([]*ssd.CmdContext, n)
		for i := range ctxs {
			ctxs[i] = h.read(seed + i)
		}
		var err error
		if ps, tCPU, err = h.sys.Driver.SubmitBatch(ready, ctxs); err != nil {
			h.t.Fatalf("SubmitBatch(%v, %d): %v", ready, n, err)
		}
		for i, p := range ps {
			if p.CID != ctxs[i].Cmd.CID {
				h.t.Fatalf("batch command %d: Pending CID %d, SQE CID %d", i, p.CID, ctxs[i].Cmd.CID)
			}
		}
	}
	if len(ps) != n || tCPU < ready {
		h.t.Fatalf("submit of %d at %v: %d pendings, host time %v", n, ready, len(ps), tCPU)
	}
	for _, p := range ps {
		if h.anyCID && p.CID != h.lastCID+1 {
			h.t.Fatalf("command CID %d follows CID %d: not delivered in submission order", p.CID, h.lastCID)
		}
		h.lastCID, h.anyCID = p.CID, true
		if p.Comp.CID != p.CID {
			h.t.Fatalf("command CID %d carries the CQE of CID %d", p.CID, p.Comp.CID)
		}
		if err := p.Comp.Status.Err(); err != nil {
			h.t.Fatalf("command CID %d completed with %v", p.CID, err)
		}
		if p.Submitted != ready || p.Done < tCPU || p.Op != nvme.OpRead {
			h.t.Fatalf("command CID %d: submitted %v done %v op %v, want submitted %v, done >= %v, READ",
				p.CID, p.Submitted, p.Done, p.Op, ready, tCPU)
		}
	}
	h.out = append(h.out, ps...)
	h.submitted += int64(n)
	h.now = max(h.now, tCPU)
	h.check("submit")
}

// reapWindow must reap what the FIFO model says ReapWindow reaps.
func (h *deliveryHarness) reapWindow(ready units.Time, need int) {
	h.t.Helper()
	want, wake := 0, ready
	if len(h.out) > 0 && need > 0 {
		want = min(need, len(h.out))
		for _, p := range h.out[:want] {
			wake = max(wake, p.Done)
		}
		for want < len(h.out) && h.out[want].Done <= wake {
			want++
		}
	}
	n, t := h.sys.Driver.ReapWindow(ready, h.out, need)
	if n != want {
		h.t.Fatalf("ReapWindow(%v, %d of %d): reaped %d, model reaps %d", ready, need, len(h.out), n, want)
	}
	if t < wake {
		h.t.Fatalf("ReapWindow(%v, %d) returned at %v, before the wake time %v", ready, need, t, wake)
	}
	h.retire(n, t, "ReapWindow")
}

// wait blocks on the oldest outstanding command.
func (h *deliveryHarness) wait(ready units.Time) {
	h.t.Helper()
	if len(h.out) == 0 {
		return
	}
	p := h.out[0]
	comp, t := h.sys.Driver.Wait(ready, p)
	if comp != p.Comp {
		h.t.Fatalf("Wait(CID %d) returned %+v, want its delivered CQE %+v", p.CID, comp, p.Comp)
	}
	if t < max(ready, p.Done) {
		h.t.Fatalf("Wait(%v, CID %d done %v) returned at %v", ready, p.CID, p.Done, t)
	}
	h.retire(1, t, "Wait")
}

// retire drops the oldest n commands from the model after a reap.
func (h *deliveryHarness) retire(n int, t units.Time, op string) {
	h.t.Helper()
	for _, p := range h.out[:n] {
		h.latSum += int64(p.Done.Sub(p.Submitted))
	}
	h.out = h.out[n:]
	h.reaped += int64(n)
	h.now = max(h.now, t)
	if n > 0 {
		if got := h.sys.Metrics.Gauge("nvme.queue_depth").Last(); got != float64(len(h.out)) {
			h.t.Fatalf("after %s: queue depth gauge %v, %d commands outstanding", op, got, len(h.out))
		}
	}
	h.check(op)
}

func (h *deliveryHarness) check(op string) {
	h.t.Helper()
	if got := h.sys.Engine.Fired(); got != h.submitted {
		h.t.Fatalf("after %s: Fired() = %d, %d commands submitted", op, got, h.submitted)
	}
	if got := h.sys.Counters.Get(stats.NVMeCommands); got != h.submitted {
		h.t.Fatalf("after %s: nvme.commands = %d, %d commands submitted", op, got, h.submitted)
	}
	lat := h.sys.Metrics.Histogram("nvme.READ.latency_ps")
	if lat.Count() != h.reaped || lat.Sum() != h.latSum {
		h.t.Fatalf("after %s: READ latency count %d sum %d, model %d and %d",
			op, lat.Count(), lat.Sum(), h.reaped, h.latSum)
	}
}

// finish reaps everything left, then checks that ResetTimers zeroes the
// delivery count with nothing left to deliver.
func (h *deliveryHarness) finish() {
	h.t.Helper()
	h.reapWindow(h.now, len(h.out))
	if len(h.out) != 0 {
		h.t.Fatalf("%d commands left after reaping all", len(h.out))
	}
	h.sys.ResetTimers()
	h.now, h.submitted, h.reaped, h.latSum = 0, 0, 0, 0
	h.check("ResetTimers")
}

// FuzzEngineSchedule decodes an arbitrary byte stream into submissions,
// windowed reaps and waits and holds the driver's inline delivery to the
// FIFO model. It rides alongside the NVMe and MorphC fuzzers in the CI
// fuzz smoke job.
func FuzzEngineSchedule(f *testing.F) {
	// Seeds: empty, same-time submissions, a batch, a wide delta, and
	// window reaps that stop short of outstanding work.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x05, 0x02, 0x00})
	f.Add([]byte{0x40, 0x10, 0x00, 0x20, 0x04, 0x18, 0x00, 0x06, 0x40, 0x00})
	f.Add([]byte{0x80, 0xff, 0xff, 0xff, 0xff, 0x00, 0x01, 0x06, 0xff, 0xff})
	f.Add([]byte{0x00, 0x10, 0x01, 0x30, 0x04, 0x20, 0x00, 0x00, 0x05, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newDeliveryHarness(t)
		for steps := 0; len(data) > 0 && steps < 4096; steps++ {
			op := data[0]
			data = data[1:]
			switch op & 0x07 {
			case 0, 1, 2, 3: // submit at now + delta; a batch with 0x40 set
				var delta uint64
				switch {
				case op&0x80 != 0 && len(data) >= 4:
					delta = uint64(binary.LittleEndian.Uint32(data)) << 16
					data = data[4:]
				case len(data) >= 1:
					delta = uint64(data[0])
					data = data[1:]
				}
				n := 1
				if op&0x40 != 0 {
					n = 2 + int(op>>4&0x03)
				}
				h.submit(h.now.Add(units.Duration(delta)), n, steps)
			default: // at now + delta: ReapWindow (4, 5) or Wait (6, 7)
				var delta uint64
				if len(data) >= 2 {
					delta = uint64(binary.LittleEndian.Uint16(data)) << uint(op>>5)
					data = data[2:]
				}
				ready := h.now.Add(units.Duration(delta))
				if op&0x07 < 6 {
					h.reapWindow(ready, int(op>>3&0x03))
				} else {
					h.wait(ready)
				}
			}
		}
		h.finish()
	})
}

// runRandomScript drives one random operation script through a fresh
// harness. A quarter of the submissions are issued behind the latest host
// time, as the threads of a multi-threaded app issue theirs from time
// zero.
func runRandomScript(t *testing.T, rng *rand.Rand, ops int) {
	h := newDeliveryHarness(t)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 60:
			var delta units.Duration
			if rng.Intn(4) == 0 {
				delta = units.Duration(rng.Intn(3)) // same-time and adjacent ties
			} else {
				delta = units.Duration(rng.Int63n(1 << uint(rng.Intn(40))))
			}
			ready := h.now.Add(delta)
			if rng.Intn(4) == 0 {
				ready = units.Time(rng.Int63n(int64(h.now) + 1))
			}
			n := 1
			if rng.Intn(8) == 0 {
				n = 2 + rng.Intn(7)
			}
			h.submit(ready, n, rng.Intn(1<<16))
		case r < 80:
			h.reapWindow(h.now.Add(units.Duration(rng.Int63n(1<<uint(rng.Intn(42))))), rng.Intn(4))
		default:
			h.wait(h.now.Add(units.Duration(rng.Int63n(1 << uint(rng.Intn(42))))))
		}
	}
	h.finish()
}

// TestEngineDifferential is the scripted battery: 1200 generated scripts
// of single and batched submissions, window reaps and waits against the
// FIFO model.
func TestEngineDifferential(t *testing.T) {
	scripts, ops := 1200, 60
	if testing.Short() {
		scripts = 200
	}
	for s := 0; s < scripts; s++ {
		t.Run(fmt.Sprintf("script=%04d", s), func(t *testing.T) {
			runRandomScript(t, rand.New(rand.NewSource(int64(s)*2654435761+1)), ops)
		})
	}
}

// TestEngineDifferentialBoundaries walks every pair of edge deltas
// deterministically: submissions at now+a, a batch at now+b and a
// same-time duplicate of a, a wait, a submission re-anchored on the moved
// host time, and a one-command window reap one tick short of b.
func TestEngineDifferentialBoundaries(t *testing.T) {
	deltas := []units.Duration{0, 1, 2, 63, 64, 65, 1<<30 - 1, 1 << 30, 1<<30 + 1}
	for _, a := range deltas {
		for _, b := range deltas {
			h := newDeliveryHarness(t)
			h.submit(h.now.Add(a), 1, 0)
			h.submit(h.now.Add(b), 3, 1)
			h.submit(h.now.Add(a), 1, 2)
			h.wait(h.now.Add(a))
			h.submit(h.now.Add(b), 1, 3)
			h.reapWindow(h.now.Add(max(b, 1)-1), 1)
			h.finish()
			if t.Failed() {
				t.Fatalf("boundary pair a=%d b=%d", a, b)
			}
		}
	}
}

// TestEngineDifferentialDense hammers a narrow time band so many commands
// share a submission time, and issues more than twice the driver's
// 1,024-entry queue depth while most stay outstanding, so CIDs, delivery
// counts and the queue-depth gauge are held to the model far past it.
func TestEngineDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	h := newDeliveryHarness(t)
	for i := 0; i < 2000; i++ {
		n := 1
		if i%5 == 0 {
			n = 2
		}
		h.submit(h.now.Add(units.Duration(rng.Int63n(128))), n, i)
		if i%97 == 96 {
			h.reapWindow(h.now.Add(units.Duration(rng.Int63n(64))), 1)
		}
	}
	if h.submitted <= 2*1024 {
		t.Fatalf("only %d commands submitted; the script must exceed twice the queue depth", h.submitted)
	}
	h.finish()
}

// TestEngineOrdering: completions are delivered at submission, in
// submission order, before any wait: a doorbell of four commands behind
// a single one delivers five completions with consecutive CIDs. A window
// reap of the oldest one, issued exactly when the last of the others
// completes, reaps them all: a completion at the wake time is already
// there.
func TestEngineOrdering(t *testing.T) {
	h := newDeliveryHarness(t)
	h.submit(0, 1, 4) // five LBAs
	h.submit(0, 4, 0) // one to four LBAs each
	if got := h.sys.Engine.Fired(); got != 5 {
		t.Fatalf("Fired() = %d before any wait, want all 5 delivered", got)
	}
	var last units.Time
	for _, p := range h.out[1:] {
		last = max(last, p.Done)
	}
	if last < h.out[0].Done {
		t.Fatalf("the batch completed (%v) before the command ahead of it (%v)", last, h.out[0].Done)
	}
	h.reapWindow(last, 1)
	if len(h.out) != 0 {
		t.Fatalf("%d commands done by the wake time %v left outstanding", len(h.out), last)
	}
	h.finish()
}

// TestEngineReset: ResetTimers zeroes the delivery count, and a reset
// system replays a fresh run identically.
func TestEngineReset(t *testing.T) {
	h := newDeliveryHarness(t)
	run := func() []core.Pending {
		h.submit(10, 1, 0)
		h.submit(10, 3, 1)
		h.submit(1<<40, 1, 2)
		ps := append([]core.Pending(nil), h.out...)
		h.wait(10)
		h.finish() // reaps the rest, then ResetTimers and checks Fired() is 0
		return ps
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("replay submitted %d commands, first run %d", len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.Submitted != b.Submitted || a.Done != b.Done || a.Comp.Status != b.Comp.Status {
			t.Fatalf("command %d: first run %+v, replay %+v", i, a, b)
		}
	}
}
