package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: 3M Int63 draws, well past many ring
// refills, equal rand.New(rand.NewSource(seed))'s for every seed shape
// the generators use (zero, negative, the default seed and a shard
// offset).
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, 20160618, 20160618 + 7919} {
		want := rand.New(rand.NewSource(seed))
		got := newSource(seed)
		for i := 0; i < 3_000_000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// FuzzGenRNG: 2,000 mixed Int63n(n), Float64 and Int63 draws, which
// cross the rngLen-output refill three times, equal *rand.Rand's.
func FuzzGenRNG(f *testing.F) {
	for _, n := range []int64{1, 2, 1 << 20, 1 << 62, 2*99999999 + 1, 1<<62 + 1, math.MaxInt64, 3} {
		f.Add(int64(20160618), n)
	}
	f.Add(int64(-5), int64(7))
	f.Fuzz(func(t *testing.T, seed, n int64) {
		if n <= 0 {
			n = n&math.MaxInt64 | 1
		}
		want := rand.New(rand.NewSource(seed))
		got := newSource(seed)
		for i := 0; i < 2000; i++ {
			switch i % 3 {
			case 0:
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("draw %d: Int63n(%d) = %d, want %d", i, n, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("draw %d: Float64 = %v, want %v", i, g, w)
				}
			default:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("draw %d: Int63 = %d, want %d", i, g, w)
				}
			}
		}
	})
}

// TestSourceRejectsBadBound: Int63n panics on n <= 0, like *rand.Rand.
func TestSourceRejectsBadBound(t *testing.T) {
	for _, n := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int63n(%d) did not panic", n)
				}
			}()
			newSource(1).Int63n(n)
		}()
	}
}
