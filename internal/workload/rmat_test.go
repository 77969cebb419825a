package workload

import (
	"math/rand"
	"testing"
)

// unitFloat is Float64's division, done at run time on a variable: a
// constant expression would be folded exactly and miss the rounding.
func unitFloat(x int64) float64 { return float64(x) / (1 << 63) }

// TestRMATThresholds derives both integer thresholds from the float
// comparison they replace, at T-1 and T.
func TestRMATThresholds(t *testing.T) {
	if f := unitFloat(rmatUpper - 1); !(f < 0.76) {
		t.Errorf("x = rmatUpper-1 gives %v, want < 0.76", f)
	}
	if f := unitFloat(rmatUpper); f < 0.76 {
		t.Errorf("x = rmatUpper gives %v, want >= 0.76", f)
	}
	if f := unitFloat(rmatRedraw - 1); f == 1 {
		t.Errorf("x = rmatRedraw-1 rounds to 1; Float64 would redraw it")
	}
	if f := unitFloat(rmatRedraw); f != 1 {
		t.Errorf("x = rmatRedraw gives %v, want 1 (Float64 redraws)", f)
	}
	if f := unitFloat(1<<63 - 1); f != 1 {
		t.Errorf("x = 2^63-1 gives %v, want 1", f)
	}
}

// floater is the one method the Float64-based RMAT step uses.
type floater interface{ Float64() float64 }

// rmatNodeFloat is the Float64-based RMAT step the integer one replaced:
// the oracle for rmatNode.
func rmatNodeFloat(rng floater, n int64) int64 {
	lo, hi := int64(0), n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if rng.Float64() < 0.76 { // a+b: upper half bias
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// TestRMATMatchesFloatOracle: 10^6 node draws per n give the same ids as
// the Float64 oracle on *rand.Rand, and leave both streams at the same
// position.
func TestRMATMatchesFloatOracle(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, n := range []int64{1, 2, 3, 1 << 20, 117937, 200002} {
		want := rand.New(rand.NewSource(n))
		got := newSource(n)
		for i := 0; i < draws; i++ {
			if g, w := rmatNode(got, n), rmatNodeFloat(want, n); g != w {
				t.Fatalf("n=%d draw %d: node %d, want %d", n, i, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("n=%d: streams out of step after %d draws", n, draws)
		}
	}
}

// TestRMATRedraw forces the redraw branch: a ring seeded with draws at
// and above rmatRedraw, and either side of rmatUpper. The integer step
// must skip exactly the draws Float64 skips and pick the same halves.
func TestRMATRedraw(t *testing.T) {
	forced := func() *source {
		s := newSource(7)
		for i, x := range []uint64{
			rmatRedraw, 1<<63 - 1, rmatRedraw - 1, // redraw, redraw, lower
			rmatUpper - 1, rmatUpper, // upper, lower
			1<<64 - 1, rmatRedraw | 1<<63, rmatUpper | 1<<63, // sign bit masked off
			rmatRedraw, 0, rmatUpper, rmatRedraw + 1, rmatUpper - 1,
		} {
			s.ring[i] = x
		}
		return s
	}
	if x := forced().Int63(); x < rmatRedraw {
		t.Fatalf("forced stream starts at %d, below the redraw threshold", x)
	}
	for _, n := range []int64{2, 3, 1 << 20, 117937} {
		got, want := forced(), forced()
		for i := 0; i < 2000; i++ {
			if g, w := rmatNode(got, n), rmatNodeFloat(want, n); g != w {
				t.Fatalf("n=%d draw %d: node %d, want %d", n, i, g, w)
			}
		}
		if got.next != want.next || got.ring != want.ring {
			t.Fatalf("n=%d: streams out of step", n)
		}
	}
}
