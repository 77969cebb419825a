package sim

import (
	"sync"

	"morpheus/internal/units"
)

// Conservative-window execution primitives. A fleet of independent
// engines (one per shard) can run concurrently as long as every
// cross-engine interaction is deferred to a synchronization point both
// sides have provably reached: the classic conservative parallel-DES
// discipline. This file holds the three pieces the array executor
// builds on — the per-engine window drain, the cross-engine rendezvous
// barrier, and the process-wide worker budget that keeps nested
// parallelism (sweep points × shard goroutines) from oversubscribing
// the machine. None of them change simulated results: windows and
// barriers partition *when* host threads run engine work, never what
// the engines compute.

// DrainWindow fires every pending event with time <= limit — including
// events those callbacks schedule that also land <= limit — in the
// engine's (time, seq) order, and returns the number fired. Unlike
// RunUntil it never advances the clock to limit afterwards: the clock
// ends at the last fired event. That is the cursor contract a
// conservative-window executor needs — a shard drained to a barrier
// must not pretend it has already reached the barrier, or work handed
// over at the exchange (a replica re-fetch resuming it between its last
// local event and the barrier) would be scheduled in the clock's past.
func (e *Engine) DrainWindow(limit units.Time) int64 {
	start := e.fired
	for {
		ev, ok := e.popAtMost(limit)
		if !ok {
			return e.fired - start
		}
		e.fire(ev)
	}
}

// Rendezvous is a reusable barrier for n parties advancing in rounds.
// Arrive blocks until all n parties of the current round have arrived;
// the last arrival runs the round's serial section (if any) while the
// others stay parked, then every party is released into the next round.
//
// The serial section is the executor's inter-window exchange phase: it
// runs single-threaded, ordered after every party's pre-arrival writes
// and before any party's post-release reads (both edges come from the
// mutex), so cross-engine work done inside it is free of data races and
// independent of which goroutine happened to arrive last.
type Rendezvous struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	round   uint64
}

// NewRendezvous returns a barrier for n parties (n < 1 is clamped to 1).
func NewRendezvous(n int) *Rendezvous {
	if n < 1 {
		n = 1
	}
	r := &Rendezvous{n: n}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Parties reports the barrier's arity.
func (r *Rendezvous) Parties() int { return r.n }

// Arrive joins the current round and blocks until it completes. The
// last party to arrive runs serial (nil is fine) before anyone is
// released; each party must arrive exactly once per round.
func (r *Rendezvous) Arrive(serial func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrived++
	if r.arrived == r.n {
		// Waiters are parked in cond.Wait (mutex released), so the serial
		// section runs alone even though it holds the barrier lock.
		if serial != nil {
			serial()
		}
		r.arrived = 0
		r.round++
		r.cond.Broadcast()
		return
	}
	round := r.round
	for round == r.round {
		r.cond.Wait()
	}
}

// WorkerBudget is a counting semaphore bounding how many goroutines run
// simulation work at once. The experiment harness creates one per sweep
// and threads it through both layers of parallelism: each in-flight
// sweep point holds one token, and a point running its shards
// concurrently scavenges extra tokens (TryAcquire) for the shard
// executor — so points × shards can never exceed the single global
// bound, whatever -parallel is.
//
// Token counts only gate host CPU concurrency. Simulated output is
// byte-identical whatever Acquire/TryAcquire hand out, which is why the
// best-effort TryAcquire is safe: a starved executor degrades to fewer
// worker slots, never to different bytes.
type WorkerBudget struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
	peak int
}

// NewWorkerBudget returns a budget of n tokens (n < 1 is clamped to 1).
func NewWorkerBudget(n int) *WorkerBudget {
	if n < 1 {
		n = 1
	}
	b := &WorkerBudget{cap: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Cap reports the budget's capacity.
func (b *WorkerBudget) Cap() int { return b.cap }

// Peak reports the high-water mark of tokens held at once — the
// oversubscription regression tests assert it never exceeds Cap.
func (b *WorkerBudget) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}

// Acquire takes one token, blocking until one is free.
func (b *WorkerBudget) Acquire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.used >= b.cap {
		b.cond.Wait()
	}
	b.used++
	if b.used > b.peak {
		b.peak = b.used
	}
}

// TryAcquire takes up to n tokens without blocking and returns how many
// it got (possibly zero).
func (b *WorkerBudget) TryAcquire(n int) int {
	if n <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	got := b.cap - b.used
	if got > n {
		got = n
	}
	if got < 0 {
		got = 0
	}
	b.used += got
	if b.used > b.peak {
		b.peak = b.used
	}
	return got
}

// Release returns n tokens.
func (b *WorkerBudget) Release(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.used -= n
	if b.used < 0 {
		panic("sim: WorkerBudget released more tokens than acquired")
	}
	b.cond.Broadcast()
}
