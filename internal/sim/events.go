package sim

import (
	"math"

	"morpheus/internal/units"
)

// Event is one scheduled callback. Events live in a per-engine pool and
// are recycled after they fire or are cancelled, so steady-state
// scheduling allocates nothing; external code holds them only through
// generation-tagged Handles.
type Event struct {
	at  units.Time
	seq int64
	fn  func(now units.Time)
	// gen invalidates stale Handles: it is bumped every time the event
	// returns to the pool, so a Handle to a fired/cancelled event can never
	// touch the slot's next occupant.
	gen uint32
	// Queue location. The heap uses idx alone; the wheel uses all three
	// (lvl == wheelOverflowLvl places idx into the overflow list).
	lvl  int8
	slot uint8
	idx  int32
}

// Handle identifies one scheduled event. The zero Handle is inert, and a
// Handle outlives its event safely: once the event fires or is cancelled
// the handle goes stale and every operation on it is a no-op.
type Handle struct {
	ev  *Event
	gen uint32
}

// Pending reports whether the handle still names a queued event.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.gen == h.gen }

// eventQueue is the priority queue behind an Engine: the time wheel in
// production, and the reference heap (heap_test.go) as the differential
// battery's oracle. The ordering contract both implementations obey
// exactly: popAtMost returns events in (time, then scheduling seq) order.
type eventQueue interface {
	push(*Event)
	// popAtMost removes and returns the earliest event if its time is <=
	// limit, else nil (leaving the queue untouched as far as ordering is
	// concerned).
	popAtMost(limit units.Time) *Event
	// remove unlinks a queued event, reporting whether it was present.
	remove(*Event) bool
	len() int
	// reset drops every queued event, passing each to recycle.
	reset(recycle func(*Event))
}

// eventPool is a block arena plus free list: events are handed out and
// recycled without per-event allocation once the blocks are warm.
type eventPool struct {
	blocks [][]Event
	free   []*Event
}

const eventPoolBlock = 256

func (p *eventPool) get() *Event {
	if len(p.free) == 0 {
		blk := make([]Event, eventPoolBlock)
		p.blocks = append(p.blocks, blk)
		for i := range blk {
			p.free = append(p.free, &blk[i])
		}
	}
	ev := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return ev
}

func (p *eventPool) put(ev *Event) {
	ev.gen++    // invalidate every outstanding Handle
	ev.fn = nil // release the closure promptly
	p.free = append(p.free, ev)
}

// Engine is the discrete-event loop for agents that need ordered
// interleaving: the NVMe command dispatch of the SSD firmware loop and
// host-side interrupt delivery run on it, and the big traffic campaigns
// push it to millions of events. Fire order is time, then scheduling
// order, which keeps runs deterministic regardless of the backing queue.
type Engine struct {
	clock *Clock
	q     eventQueue
	pool  eventPool
	seq   int64
	fired int64
}

// NewEngine returns an engine driving the given clock on the
// hierarchical time wheel: amortized O(1) schedule/fire and an
// allocation-free steady state, built for million-event runs. See
// wheel.go for the determinism argument.
func NewEngine(clock *Clock) *Engine { return &Engine{clock: clock, q: newWheelQueue()} }

// Clock returns the engine's clock.
func (e *Engine) Clock() *Clock { return e.clock }

// Schedule queues fn to run at time at. Scheduling in the past (before the
// clock's current time) panics.
func (e *Engine) Schedule(at units.Time, fn func(now units.Time)) Handle {
	if at < e.clock.Now() {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := e.pool.get()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.q.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleAfter queues fn to run d after the current time.
func (e *Engine) ScheduleAfter(d units.Duration, fn func(now units.Time)) Handle {
	return e.Schedule(e.clock.Now().Add(d), fn)
}

// Cancel removes a pending event. Cancelling an already-fired, already-
// cancelled, or zero handle is a no-op — the generation tag makes a stale
// handle inert even after its Event struct was recycled for a new event.
func (e *Engine) Cancel(h Handle) {
	if h.ev == nil || h.ev.gen != h.gen {
		return
	}
	if e.q.remove(h.ev) {
		e.pool.put(h.ev)
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.len() }

// fire advances the clock to the event and runs it. The event returns to
// the pool before the callback runs, so a callback that schedules new
// work reuses it immediately (and a callback cancelling its own handle is
// a no-op, as the generation already moved on).
func (e *Engine) fire(ev *Event) {
	e.clock.AdvanceTo(ev.at)
	e.fired++
	fn, at := ev.fn, ev.at
	e.pool.put(ev)
	fn(at)
}

// Step fires the earliest event, advancing the clock to its time. It
// reports false if no events are pending.
func (e *Engine) Step() bool {
	ev := e.q.popAtMost(units.Time(math.MaxInt64))
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run fires events until none remain, returning the number fired.
func (e *Engine) Run() int64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}

// RunUntil fires events with time <= deadline, advancing the clock to the
// deadline afterwards.
func (e *Engine) RunUntil(deadline units.Time) {
	for {
		ev := e.q.popAtMost(deadline)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if e.clock.Now() < deadline {
		e.clock.AdvanceTo(deadline)
	}
}

// Fired reports the total number of events fired since creation or Reset.
func (e *Engine) Fired() int64 { return e.fired }

// Overflowed reports how many placements landed beyond the wheel's
// horizon since creation or Reset (always zero on the heap oracle). Tests
// use it to prove a workload drove the overflow cascade, not just the
// in-window fast path.
func (e *Engine) Overflowed() int64 {
	if w, ok := e.q.(*wheelQueue); ok {
		return w.overflowed
	}
	return 0
}

// Reset discards every pending event and rewinds the engine — clock,
// scheduling sequence, fired counter — for a fresh run, keeping the event
// pool and bucket capacity warm. It is part of the ResetTimers boundary
// between experiment setup and measurement.
func (e *Engine) Reset() {
	e.q.reset(e.pool.put)
	e.clock.Reset()
	e.seq = 0
	e.fired = 0
}
