package host

import (
	"testing"

	"morpheus/internal/units"
)

func TestCoRunnerDelaysWork(t *testing.T) {
	h, _ := newHost(t)
	cr := DefaultCoRunner(h, 0.5)
	cr.Occupy(h, units.Second)
	// 100 ms of CPU work, charged in sub-quantum pieces as the parse loop
	// does (one piece per MDTS chunk), should take about twice as long at
	// a 50% share.
	var end units.Time
	for i := 0; i < 100; i++ {
		end = h.ComputeOn(0, end, 2.5e6) // 1 ms pieces
	}
	wall := units.Duration(end)
	if wall < 180*units.Millisecond || wall > 230*units.Millisecond {
		t.Fatalf("100ms of work under a 50%% co-runner took %v, want ~200ms", wall)
	}
}

func TestCoRunnerZeroLoadIsFree(t *testing.T) {
	h, _ := newHost(t)
	CoRunner{Cores: []int{0}, Load: 0, Quantum: 4 * units.Millisecond}.Occupy(h, units.Second)
	end := h.ComputeOn(0, 0, 2.5e8)
	if units.Duration(end) != 100*units.Millisecond {
		t.Fatalf("no-load co-runner changed timing: %v", end)
	}
}

func TestCoRunnerLoadClamped(t *testing.T) {
	h, _ := newHost(t)
	cr := DefaultCoRunner(h, 5.0) // clamps to 1.0: cores fully occupied
	cr.Occupy(h, 100*units.Millisecond)
	end := h.ComputeOn(0, 0, 2.5e6) // 1 ms of work
	// Everything is pushed past the occupied horizon.
	if units.Duration(end) < 100*units.Millisecond {
		t.Fatalf("fully-loaded core ran work at %v", end)
	}
}
