package sim

import "morpheus/internal/units"

// event is one scheduled callback, held by value in the engine's heap.
type event struct {
	at  units.Time
	seq int64
	fn  func(now units.Time)
}

// before is the fire-order contract: time, then scheduling sequence
// (FIFO among same-time events).
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is the discrete-event loop that orders the driver's deferred
// completion delivery. It only orders work: callbacks compute with the
// ready and done times they captured, and every cost comes from the
// Resource ledgers. Fire order is time, then scheduling order, which
// keeps runs deterministic. The queue is a binary heap of values; it
// holds at most the commands in flight, so O(log n) is a handful of
// comparisons.
type Engine struct {
	clock *Clock
	q     []event
	seq   int64
	fired int64
}

// NewEngine returns an engine driving the given clock.
func NewEngine(clock *Clock) *Engine { return &Engine{clock: clock} }

// Clock returns the engine's clock.
func (e *Engine) Clock() *Clock { return e.clock }

// Schedule queues fn to run at time at. Scheduling in the past (before the
// clock's current time) panics.
func (e *Engine) Schedule(at units.Time, fn func(now units.Time)) {
	if at < e.clock.Now() {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	e.q = append(e.q, event{at: at, seq: e.seq, fn: fn})
	q := e.q
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.q) }

// popAtMost removes and returns the earliest event if its time is <=
// limit; ok is false (and the queue untouched) otherwise.
func (e *Engine) popAtMost(limit units.Time) (ev event, ok bool) {
	q := e.q
	if len(q) == 0 || q[0].at > limit {
		return event{}, false
	}
	ev = q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the closure
	q = q[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	e.q = q
	return ev, true
}

// fire advances the clock to the event and runs it.
func (e *Engine) fire(ev event) {
	e.clock.AdvanceTo(ev.at)
	e.fired++
	ev.fn(ev.at)
}

// RunUntil fires events with time <= deadline, advancing the clock to the
// deadline afterwards.
func (e *Engine) RunUntil(deadline units.Time) {
	e.DrainWindow(deadline)
	if e.clock.Now() < deadline {
		e.clock.AdvanceTo(deadline)
	}
}

// Fired reports the total number of events fired since creation or Reset.
func (e *Engine) Fired() int64 { return e.fired }

// Reset discards every pending event and rewinds the engine — clock,
// scheduling sequence, fired counter — for a fresh run, keeping the
// queue's capacity. It is part of the ResetTimers boundary between
// experiment setup and measurement.
func (e *Engine) Reset() {
	clear(e.q)
	e.q = e.q[:0]
	e.clock.Reset()
	e.seq = 0
	e.fired = 0
}
