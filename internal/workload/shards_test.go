package workload

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestGeneratorsReserveExactly: with one shard, each generator allocates
// the same number of times for 10^4 and 10^6 items, so its reserved
// buffer never regrows. Three runs average away a stray runtime
// allocation; a regrowing buffer adds several per run.
func TestGeneratorsReserveExactly(t *testing.T) {
	gens := []struct {
		name string
		gen  func(items int64) Shards
	}{
		{"EdgeList", func(m int64) Shards { return EdgeList(1000, m, 1, 1) }},
		{"IntArray", func(m int64) Shards { return IntArray(m, 1<<30, 8, 1, 1) }},
		{"DictionaryText", func(m int64) Shards { return DictionaryText(m, 500000, 12, 1, 1) }},
		{"DenseMatrix", func(m int64) Shards { return DenseMatrix(m/100, 100, 99999999, 1, 1) }},
		{"Points", func(m int64) Shards { return Points(m/16, 16, 99999999, 1, 1) }},
		{"SparseTriples", func(m int64) Shards { return SparseTriples(m/16+4, m/16+4, m, 1, 1) }},
	}
	for _, g := range gens {
		small := testing.AllocsPerRun(3, func() { g.gen(10_000) })
		large := testing.AllocsPerRun(3, func() { g.gen(1_000_000) })
		if small != large {
			t.Errorf("%s: %v allocations for 10^4 items, %v for 10^6: a buffer regrew", g.name, small, large)
		}
	}
}

// TestShardsIndependentOfWorkers: 10,000 shards give the same bytes on
// one worker and on eight.
func TestShardsIndependentOfWorkers(t *testing.T) {
	gen := func() []Shards {
		return []Shards{
			IntArray(30_000, 1<<30, 8, 10_000, 3),
			EdgeList(5000, 30_000, 10_000, 3),
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := gen()
	runtime.GOMAXPROCS(8)
	eight := gen()
	for g := range one {
		if len(one[g]) != 10_000 || len(eight[g]) != 10_000 {
			t.Fatalf("generator %d: %d and %d shards, want 10000", g, len(one[g]), len(eight[g]))
		}
		for s := range one[g] {
			if !bytes.Equal(one[g][s], eight[g][s]) {
				t.Fatalf("generator %d shard %d differs between 1 and 8 workers", g, s)
			}
		}
	}
}

// TestShardPoolBounded: however many shards there are, genShards runs
// them on the caller plus at most GOMAXPROCS-1 goroutines.
func TestShardPoolBounded(t *testing.T) {
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		var peak atomic.Int64
		counts := make([]int64, 10_000)
		genShards(counts, func(s int, _ int64) []byte {
			n := int64(runtime.NumGoroutine())
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			return nil
		})
		runtime.GOMAXPROCS(prev)
		if limit := int64(base + procs - 1); peak.Load() > limit {
			t.Errorf("GOMAXPROCS %d: %d live goroutines, want at most %d (%d before, plus %d workers besides the caller)",
				procs, peak.Load(), limit, base, procs-1)
		}
	}
}
