package sim

import "sync"

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
