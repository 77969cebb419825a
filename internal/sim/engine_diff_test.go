package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"morpheus/internal/units"
)

// The differential scheduler battery: every script of scheduler
// operations is replayed against the time wheel and the reference heap,
// and the two engines must produce identical fire sequences — same event,
// same fire time, same count — plus identical clocks and pending counts
// after every operation. The heap is the oracle; the wheel's bucket math
// (placement, cascade, overflow rebase) is what's on trial.

// firing records one fired event for sequence comparison: which schedule
// call it came from and when it fired.
type firing struct {
	id int
	at units.Time
}

// diffHarness drives the same operation on both engines in lockstep.
type diffHarness struct {
	t       *testing.T
	wheel   *Engine
	heap    *Engine
	nextID  int
	handles []diffHandle // parallel live-handle table
	wfired  []firing
	hfired  []firing
}

type diffHandle struct {
	id    int
	wheel Handle
	heap  Handle
}

func newDiffHarness(t *testing.T) *diffHarness {
	return &diffHarness{
		t:     t,
		wheel: NewEngine(NewClock()),
		heap:  newEngineKind(NewClock(), engineHeap),
	}
}

func (d *diffHarness) schedule(at units.Time) {
	id := d.nextID
	d.nextID++
	wh := d.wheel.Schedule(at, func(now units.Time) { d.wfired = append(d.wfired, firing{id, now}) })
	hh := d.heap.Schedule(at, func(now units.Time) { d.hfired = append(d.hfired, firing{id, now}) })
	d.handles = append(d.handles, diffHandle{id: id, wheel: wh, heap: hh})
	d.check("schedule")
}

func (d *diffHarness) cancel(i int) {
	if len(d.handles) == 0 {
		return
	}
	h := d.handles[i%len(d.handles)]
	if h.wheel.Pending() != h.heap.Pending() {
		d.t.Fatalf("handle %d pending diverged: wheel=%v heap=%v", h.id, h.wheel.Pending(), h.heap.Pending())
	}
	d.wheel.Cancel(h.wheel)
	d.heap.Cancel(h.heap)
	d.check("cancel")
}

func (d *diffHarness) step() {
	ws := d.wheel.Step()
	hs := d.heap.Step()
	if ws != hs {
		d.t.Fatalf("Step diverged: wheel=%v heap=%v", ws, hs)
	}
	d.check("step")
}

func (d *diffHarness) runUntil(deadline units.Time) {
	if deadline < d.wheel.Clock().Now() {
		deadline = d.wheel.Clock().Now()
	}
	d.wheel.RunUntil(deadline)
	d.heap.RunUntil(deadline)
	d.check("runUntil")
}

func (d *diffHarness) run() {
	wn := d.wheel.Run()
	hn := d.heap.Run()
	if wn != hn {
		d.t.Fatalf("Run fired counts diverged: wheel=%d heap=%d", wn, hn)
	}
	d.check("run")
}

func (d *diffHarness) check(op string) {
	d.t.Helper()
	if w, h := d.wheel.Clock().Now(), d.heap.Clock().Now(); w != h {
		d.t.Fatalf("after %s: clocks diverged: wheel=%v heap=%v", op, w, h)
	}
	if w, h := d.wheel.Pending(), d.heap.Pending(); w != h {
		d.t.Fatalf("after %s: pending diverged: wheel=%d heap=%d", op, w, h)
	}
	if w, h := d.wheel.Fired(), d.heap.Fired(); w != h {
		d.t.Fatalf("after %s: fired counts diverged: wheel=%d heap=%d", op, w, h)
	}
	if len(d.wfired) != len(d.hfired) {
		d.t.Fatalf("after %s: fire sequences diverged in length: wheel=%d heap=%d", op, len(d.wfired), len(d.hfired))
	}
	for i := range d.wfired {
		if d.wfired[i] != d.hfired[i] {
			d.t.Fatalf("after %s: fire #%d diverged: wheel=(id %d at %v) heap=(id %d at %v)",
				op, i, d.wfired[i].id, d.wfired[i].at, d.hfired[i].id, d.hfired[i].at)
		}
	}
}

// adversarialDeltas are schedule offsets that aim at bucket boundaries:
// zero (same-time FIFO), the slot size and its neighbours at every wheel
// level, and jumps past the top-level horizon into the overflow list.
var adversarialDeltas = func() []units.Duration {
	ds := []units.Duration{0, 1, 2, 3}
	for l := 1; l <= wheelLevels; l++ {
		w := units.Duration(1) << uint(l*wheelSlotBits)
		ds = append(ds, w-1, w, w+1, 2*w, 2*w+1)
	}
	// Beyond the horizon: overflow placement and rebase.
	h := units.Duration(1) << uint(wheelLevels*wheelSlotBits)
	ds = append(ds, h, h+1, 3*h, 100*h)
	return ds
}()

// runRandomScript drives one random operation script through the harness.
func runRandomScript(t *testing.T, rng *rand.Rand, ops int) {
	d := newDiffHarness(t)
	for i := 0; i < ops; i++ {
		now := d.wheel.Clock().Now()
		switch r := rng.Intn(100); {
		case r < 55: // schedule, biased toward adversarial deltas
			var delta units.Duration
			if rng.Intn(2) == 0 {
				delta = adversarialDeltas[rng.Intn(len(adversarialDeltas))]
			} else {
				delta = units.Duration(rng.Int63n(1 << uint(rng.Intn(40))))
			}
			d.schedule(now.Add(delta))
		case r < 70:
			d.cancel(rng.Int())
		case r < 85:
			d.step()
		case r < 97:
			d.runUntil(now.Add(units.Duration(rng.Int63n(1 << uint(rng.Intn(42))))))
		default:
			d.run()
		}
	}
	d.run() // drain: total fire sequences must match end to end
}

// TestEngineDifferential is the scripted battery: >= 1k generated scripts
// against the heap oracle.
func TestEngineDifferential(t *testing.T) {
	scripts, ops := 1200, 60
	if testing.Short() {
		scripts = 200
	}
	for s := 0; s < scripts; s++ {
		s := s
		t.Run(fmt.Sprintf("script=%04d", s), func(t *testing.T) {
			runRandomScript(t, rand.New(rand.NewSource(int64(s)*2654435761+1)), ops)
		})
	}
}

// TestEngineDifferentialBoundaries walks every adversarial delta pair
// deterministically: schedule at now+a then now+b, interleave partial
// drains, cancel one of them. This pins the exact window-boundary edges
// (slot 63 -> 64, horizon-1 -> horizon) random scripts may miss.
func TestEngineDifferentialBoundaries(t *testing.T) {
	for _, a := range adversarialDeltas {
		for _, b := range adversarialDeltas {
			d := newDiffHarness(t)
			d.schedule(units.Time(int64(a)))
			d.schedule(units.Time(int64(b)))
			d.schedule(units.Time(int64(a)))         // duplicate time: FIFO by seq
			d.runUntil(units.Time(int64(a)))         // partial drain at a boundary
			d.schedule(d.wheel.Clock().Now().Add(b)) // re-anchor after cursor moved
			d.cancel(1)
			d.run()
			if t.Failed() {
				t.Fatalf("boundary pair a=%d b=%d", a, b)
			}
		}
	}
}

// TestEngineDifferentialDense hammers a narrow time band so level-0 slots
// collect many same-time events and cancels hit mid-slot.
func TestEngineDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	d := newDiffHarness(t)
	for i := 0; i < 2000; i++ {
		d.schedule(units.Time(rng.Int63n(128)))
		if i%3 == 0 {
			d.cancel(rng.Int())
		}
	}
	d.run()
}
