package sim

import (
	"sync"
	"testing"

	"morpheus/internal/units"
)

// The event-pool battery: events are recycled through a per-engine arena,
// so the hazards are stale handles touching a reused Event struct. These
// tests run under -race in the sim-smoke CI job; engines are confined to
// one goroutine each, and the parallel test proves independent engines
// stay independent the way the -parallel experiment harness uses them.

func TestEventPoolReuseAfterFire(t *testing.T) {
	engineKinds(t, func(t *testing.T, eng *Engine) {
		fired := 0
		h1 := eng.Schedule(10, func(units.Time) { fired++ })
		eng.Run()
		if h1.Pending() {
			t.Fatal("fired handle must be stale")
		}
		// The recycled struct now backs a different logical event; the stale
		// handle must not be able to cancel it.
		h2 := eng.Schedule(20, func(units.Time) { fired++ })
		eng.Cancel(h1)
		if !h2.Pending() {
			t.Fatal("stale cancel hit the recycled event")
		}
		eng.Run()
		if fired != 2 {
			t.Fatalf("fired = %d, want 2", fired)
		}
	})
}

func TestEventPoolReuseAfterCancel(t *testing.T) {
	engineKinds(t, func(t *testing.T, eng *Engine) {
		fired := 0
		h1 := eng.Schedule(10, func(units.Time) { t.Error("cancelled event fired") })
		eng.Cancel(h1)
		h2 := eng.Schedule(10, func(units.Time) { fired++ })
		eng.Cancel(h1) // stale: must not touch h2's event
		eng.Run()
		if fired != 1 {
			t.Fatalf("fired = %d, want 1", fired)
		}
		if h2.Pending() {
			t.Fatal("fired handle must be stale")
		}
	})
}

// TestEventPoolSelfCancelInCallback: by the time a callback runs, its own
// event is already recycled; cancelling the corresponding handle from
// inside must be a no-op even if the struct was immediately reused for an
// event the callback itself scheduled.
func TestEventPoolSelfCancelInCallback(t *testing.T) {
	engineKinds(t, func(t *testing.T, eng *Engine) {
		fired := 0
		var h Handle
		h = eng.Schedule(10, func(now units.Time) {
			fired++
			eng.Schedule(now.Add(5), func(units.Time) { fired++ })
			eng.Cancel(h) // stale self-cancel: must not kill the new event
		})
		eng.Run()
		if fired != 2 {
			t.Fatalf("fired = %d, want 2", fired)
		}
	})
}

// TestEventPoolChurnReuse drives enough schedule/fire/cancel churn through
// a small pending window that every pool block is recycled many times,
// checking the fired count and that no stale handle ever goes live again.
func TestEventPoolChurnReuse(t *testing.T) {
	engineKinds(t, func(t *testing.T, eng *Engine) {
		const rounds = 5000
		fired := 0
		var stale []Handle
		for i := 0; i < rounds; i++ {
			h := eng.Schedule(eng.Clock().Now().Add(units.Duration(i%7)), func(units.Time) { fired++ })
			if i%3 == 0 {
				eng.Cancel(h)
				stale = append(stale, h)
			}
			if i%2 == 0 {
				eng.Step()
			}
			if len(stale) > 64 {
				for _, s := range stale {
					if s.Pending() {
						t.Fatal("stale handle came back to life")
					}
					eng.Cancel(s) // must stay a no-op
				}
				stale = stale[:0]
			}
		}
		eng.Run()
		want := rounds - (rounds+2)/3
		if fired != want {
			t.Fatalf("fired = %d, want %d", fired, want)
		}
	})
}

// TestEventPoolParallelEngines mirrors how the -parallel experiment
// harness uses engines: one per system, never shared. Under -race this
// proves the pools have no hidden shared state.
func TestEventPoolParallelEngines(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	results := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := newEngineOn(NewClock(), engineKind(w%2))
			fired := 0
			for i := 0; i < 2000; i++ {
				h := eng.Schedule(eng.Clock().Now().Add(units.Duration(i%11)), func(units.Time) { fired++ })
				if i%5 == 0 {
					eng.Cancel(h)
				}
				if i%2 == 1 {
					eng.Step()
				}
			}
			eng.Run()
			results[w] = fired
		}(w)
	}
	wg.Wait()
	// Same workload -> same count, independent of kind and neighbours.
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d fired %d, worker 0 fired %d", w, results[w], results[0])
		}
	}
}
