package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestWorkerBudgetBounds: concurrent acquirers never exceed the cap,
// TryAcquire never blocks or overshoots, and the peak high-water mark
// records the true maximum.
func TestWorkerBudgetBounds(t *testing.T) {
	const cap = 3
	b := NewWorkerBudget(cap)
	var inUse atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Acquire()
			if n := inUse.Add(1); n > cap {
				t.Errorf("%d workers inside a %d-token budget", n, cap)
			}
			extra := b.TryAcquire(5)
			if got := inUse.Add(int64(extra)); got > cap {
				t.Errorf("TryAcquire oversubscribed: %d > %d", got, cap)
			}
			inUse.Add(-int64(extra) - 1)
			b.Release(extra + 1)
		}()
	}
	wg.Wait()
	if p := b.Peak(); p > cap {
		t.Fatalf("peak %d exceeds cap %d", p, cap)
	}
	if p := b.Peak(); p < 1 {
		t.Fatalf("peak %d never registered any acquisition", p)
	}
	if got := b.TryAcquire(100); got != cap {
		t.Fatalf("TryAcquire(100) on an idle budget got %d, want %d", got, cap)
	}
	b.Release(cap)
}
