package sim

import (
	"sync"
	"sync/atomic"
	"testing"

	"morpheus/internal/units"
)

// TestDrainWindowCursorContract: DrainWindow fires exactly the events at
// or before the limit — cascading into events its callbacks schedule
// inside the window — in (time, seq) order, and leaves the clock at the
// last fired event rather than the window edge.
func TestDrainWindowCursorContract(t *testing.T) {
	e := NewEngine(NewClock())
	var fired []units.Time
	note := func(now units.Time) { fired = append(fired, now) }
	e.Schedule(10, func(now units.Time) {
		note(now)
		// Cascade: lands inside the window and must fire this drain.
		e.Schedule(40, note)
	})
	e.Schedule(30, note)
	e.Schedule(70, note) // past the window: must stay queued

	if n := e.DrainWindow(50); n != 3 {
		t.Fatalf("DrainWindow(50) fired %d events, want 3", n)
	}
	want := []units.Time{10, 30, 40}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	// Cursor contract: the clock stays at the last fired event, not
	// the barrier, so post-exchange work at t in (40, 50] is still
	// schedulable without panicking.
	if now := e.Clock().Now(); now != 40 {
		t.Fatalf("clock = %v after drain, want 40 (the last fired event)", now)
	}
	e.Schedule(45, note)
	if n := e.DrainWindow(50); n != 1 {
		t.Fatalf("second DrainWindow(50) fired %d, want 1", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the t=70 event still queued", e.Pending())
	}
	// An empty window fires nothing and leaves the clock alone.
	if n := e.DrainWindow(60); n != 0 {
		t.Fatalf("empty DrainWindow fired %d", n)
	}
	if now := e.Clock().Now(); now != 45 {
		t.Fatalf("clock moved to %v on an empty drain", now)
	}
}

// TestDrainWindowMatchesRunUntilFiring: over the same event load, a
// sequence of window drains fires the same events in the same order as
// one RunUntil — the windows are a pure partition of time, not a
// different schedule.
func TestDrainWindowMatchesRunUntilFiring(t *testing.T) {
	load := func(e *Engine, log *[]units.Time) {
		for i := 0; i < 50; i++ {
			at := units.Time((i * 37) % 500)
			e.Schedule(at, func(now units.Time) {
				*log = append(*log, now)
				if now < 450 {
					e.Schedule(now+13, func(now units.Time) { *log = append(*log, now) })
				}
			})
		}
	}
	var oneShot, windowed []units.Time
	a := NewEngine(NewClock())
	load(a, &oneShot)
	a.RunUntil(1000)
	b := NewEngine(NewClock())
	load(b, &windowed)
	for limit := units.Time(100); limit <= 1000; limit += 100 {
		b.DrainWindow(limit)
	}
	if len(oneShot) != len(windowed) {
		t.Fatalf("RunUntil fired %d events, windowed drains fired %d", len(oneShot), len(windowed))
	}
	for i := range oneShot {
		if oneShot[i] != windowed[i] {
			t.Fatalf("fire order diverged at %d: %v vs %v", i, oneShot[i], windowed[i])
		}
	}
}

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
