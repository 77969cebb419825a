package sim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRendezvousRounds: n parties arriving repeatedly advance in locked
// rounds, the serial section runs exactly once per round, and it is
// mutually exclusive with every party's own work.
func TestRendezvousRounds(t *testing.T) {
	const parties, rounds = 8, 25
	r := NewRendezvous(parties)
	var serialRuns atomic.Int64
	var inSerial atomic.Int64
	counts := make([]int64, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				counts[p]++ // pre-arrival write, must be visible to serial
				r.Arrive(func() {
					if inSerial.Add(1) != 1 {
						t.Error("serial sections overlapped")
					}
					serialRuns.Add(1)
					var total int64
					for q := 0; q < parties; q++ {
						total += counts[q]
					}
					if total%int64(parties) != 0 {
						t.Errorf("serial saw a torn round: counts sum to %d", total)
					}
					inSerial.Add(-1)
				})
			}
		}(p)
	}
	wg.Wait()
	if got := serialRuns.Load(); got != rounds {
		t.Fatalf("serial section ran %d times, want %d", got, rounds)
	}
}

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
