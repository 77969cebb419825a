package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"morpheus/internal/units"
)

// The engine's fire-order contract is (time, scheduling seq): over any
// script, the events fire in the order of a stable sort of the script's
// schedule calls by time. An event scheduled by a callback joins the
// script when its parent fires, so cascades obey the same oracle.

// firing records one event: which schedule call it came from and its
// time (scheduled time in the script, fire time in the engine's log).
type firing struct {
	id int
	at units.Time
}

// oracleHarness drives one engine through a script and checks every
// step against the stable-sort oracle and the clock contracts.
type oracleHarness struct {
	t     *testing.T
	eng   *Engine
	sched []firing // every schedule call, in scheduling order
	fired []firing
}

func newOracleHarness(t *testing.T) *oracleHarness {
	return &oracleHarness{t: t, eng: NewEngine(NewClock())}
}

// schedule queues an event at now+delta. With child set, the event
// schedules one more at its fire time plus delta when it fires.
func (h *oracleHarness) schedule(delta units.Duration, child bool) {
	h.scheduleAt(h.eng.Clock().Now().Add(delta), delta, child)
	h.check("schedule")
}

func (h *oracleHarness) scheduleAt(at units.Time, delta units.Duration, child bool) {
	id := len(h.sched)
	h.sched = append(h.sched, firing{id, at})
	h.eng.Schedule(at, func(now units.Time) {
		h.fired = append(h.fired, firing{id, now})
		if child {
			h.scheduleAt(now.Add(delta), delta, false)
		}
	})
}

// runUntil must fire everything due and leave the clock at the deadline.
func (h *oracleHarness) runUntil(delta units.Duration) {
	deadline := h.eng.Clock().Now().Add(delta)
	h.eng.RunUntil(deadline)
	if now := h.eng.Clock().Now(); now != deadline {
		h.t.Fatalf("RunUntil(%v) left the clock at %v", deadline, now)
	}
	h.due(deadline, "RunUntil")
}

// drainWindow must fire everything due and leave the clock at the last
// event it fired (where it was, if it fired none).
func (h *oracleHarness) drainWindow(delta units.Duration) {
	before, last := len(h.fired), h.eng.Clock().Now()
	limit := last.Add(delta)
	n := h.eng.DrainWindow(limit)
	if int(n) != len(h.fired)-before {
		h.t.Fatalf("DrainWindow(%v) reported %d events, fired %d", limit, n, len(h.fired)-before)
	}
	if n > 0 {
		last = h.fired[len(h.fired)-1].at
	}
	if now := h.eng.Clock().Now(); now != last {
		h.t.Fatalf("DrainWindow(%v) left the clock at %v, want the last fired event %v", limit, now, last)
	}
	h.due(limit, "DrainWindow")
}

// due checks that a drain to limit fired exactly the events at or before
// it: every fired event lies at or before the clock, which is at or
// before limit, so the count alone pins the set.
func (h *oracleHarness) due(limit units.Time, op string) {
	h.t.Helper()
	want := 0
	for _, s := range h.sched {
		if s.at <= limit {
			want++
		}
	}
	if len(h.fired) != want {
		h.t.Fatalf("after %s(%v): %d events fired, %d were due", op, limit, len(h.fired), want)
	}
	h.check(op)
}

func (h *oracleHarness) check(op string) {
	h.t.Helper()
	if got, want := h.eng.Pending(), len(h.sched)-len(h.fired); got != want {
		h.t.Fatalf("after %s: pending = %d, want %d", op, got, want)
	}
	if got := h.eng.Fired(); got != int64(len(h.fired)) {
		h.t.Fatalf("after %s: Fired() = %d, callbacks ran %d", op, got, len(h.fired))
	}
}

// finish drains the engine and compares the whole fire log with the
// stable sort of the script by time.
func (h *oracleHarness) finish() {
	h.t.Helper()
	// A child lands at or after its parent's fire time, so drain to the
	// latest scheduled time until nothing is left.
	for {
		end := h.eng.Clock().Now()
		for _, s := range h.sched {
			end = max(end, s.at)
		}
		h.eng.RunUntil(end)
		if h.eng.Pending() == 0 {
			break
		}
	}
	want := append([]firing(nil), h.sched...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(h.fired) != len(want) {
		h.t.Fatalf("fired %d of %d scheduled events", len(h.fired), len(want))
	}
	for i := range want {
		if h.fired[i] != want[i] {
			h.t.Fatalf("fire #%d: got (id %d at %v), want (id %d at %v)",
				i, h.fired[i].id, h.fired[i].at, want[i].id, want[i].at)
		}
	}
}

// FuzzEngineSchedule decodes an arbitrary byte stream into scheduler
// operations and holds the engine to the stable-sort oracle and the
// RunUntil/DrainWindow clock contracts. It rides alongside the NVMe and
// MorphC fuzzers in the CI fuzz smoke job.
func FuzzEngineSchedule(f *testing.F) {
	// Seeds: empty, same-time FIFO, a cascade, a wide delta, and window
	// drains that stop short of pending work.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x05, 0x02, 0x00})
	f.Add([]byte{0x40, 0x10, 0x00, 0x20, 0x04, 0x18, 0x00, 0x06, 0x40, 0x00})
	f.Add([]byte{0x80, 0xff, 0xff, 0xff, 0xff, 0x00, 0x01, 0x06, 0xff, 0xff})
	f.Add([]byte{0x00, 0x10, 0x01, 0x30, 0x04, 0x20, 0x00, 0x00, 0x05, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newOracleHarness(t)
		for steps := 0; len(data) > 0 && steps < 4096; steps++ {
			op := data[0]
			data = data[1:]
			switch op & 0x07 {
			case 0, 1, 2, 3: // schedule at now + delta
				var delta uint64
				switch {
				case op&0x80 != 0 && len(data) >= 4:
					delta = uint64(binary.LittleEndian.Uint32(data)) << 16
					data = data[4:]
				case len(data) >= 1:
					delta = uint64(data[0])
					data = data[1:]
				}
				h.schedule(units.Duration(delta), op&0x40 != 0)
			default: // drain to now + delta: DrainWindow (4, 5) or RunUntil (6, 7)
				var delta uint64
				if len(data) >= 2 {
					delta = uint64(binary.LittleEndian.Uint16(data)) << uint(op>>5)
					data = data[2:]
				}
				if op&0x07 < 6 {
					h.drainWindow(units.Duration(delta))
				} else {
					h.runUntil(units.Duration(delta))
				}
			}
		}
		h.finish()
	})
}

// runRandomScript drives one random operation script through the harness.
func runRandomScript(t *testing.T, rng *rand.Rand, ops int) {
	h := newOracleHarness(t)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 60:
			var delta units.Duration
			if rng.Intn(4) == 0 {
				delta = units.Duration(rng.Intn(3)) // same-time and adjacent ties
			} else {
				delta = units.Duration(rng.Int63n(1 << uint(rng.Intn(40))))
			}
			h.schedule(delta, rng.Intn(8) == 0)
		case r < 80:
			h.drainWindow(units.Duration(rng.Int63n(1 << uint(rng.Intn(42)))))
		default:
			h.runUntil(units.Duration(rng.Int63n(1 << uint(rng.Intn(42)))))
		}
	}
	h.finish()
}

// TestEngineDifferential is the scripted battery: 1200 generated scripts
// of schedules, cascades, window drains and RunUntil against the
// stable-sort oracle.
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
// deterministically: events at now+a, now+b and a same-time duplicate of
// a, a RunUntil that stops exactly on a, a schedule re-anchored on the
// moved clock, and a window drain that stops one tick short of it.
func TestEngineDifferentialBoundaries(t *testing.T) {
	deltas := []units.Duration{0, 1, 2, 63, 64, 65, 1<<30 - 1, 1 << 30, 1<<30 + 1}
	for _, a := range deltas {
		for _, b := range deltas {
			h := newOracleHarness(t)
			h.schedule(a, false)
			h.schedule(b, true)
			h.schedule(a, false)
			h.runUntil(a)
			h.schedule(b, false)
			h.drainWindow(max(b, 1) - 1)
			h.finish()
			if t.Failed() {
				t.Fatalf("boundary pair a=%d b=%d", a, b)
			}
		}
	}
}

// TestEngineDifferentialDense hammers a narrow time band so many events
// share a fire time and the heap reorders long same-time runs.
func TestEngineDifferentialDense(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	h := newOracleHarness(t)
	for i := 0; i < 2000; i++ {
		h.schedule(units.Duration(rng.Int63n(128)), i%5 == 0)
		if i%97 == 96 {
			h.drainWindow(units.Duration(rng.Int63n(64)))
		}
	}
	h.finish()
}
