package stats

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// makeRegistry builds a registry with every metric kind populated.
func makeRegistry(n int64) *Registry {
	r := NewRegistry()
	r.Counters().Add("c.a", n)
	r.Counters().Add("c.b", 2*n)
	r.Histogram("h").Record(n)
	r.Gauge("g").Sample(n, float64(n))
	return r
}

// makeSeriesRegistry additionally enables windowed collection and an SLO,
// so the race batteries cover the series and SLO folds.
func makeSeriesRegistry(n int64) *Registry {
	r := makeRegistry(n)
	r.EnableSeries(64)
	r.AddSLO(SLOConfig{Name: "t", Metric: "h.obs", TargetPS: 100, Budget: 0.5})
	r.Latency("h.obs").Observe(n, n)
	r.Sampler("g.at").Sample(n, float64(n))
	r.TimedCounter("c.at").Add(n, 1)
	return r
}

// TestConcurrentMergeIntoOneRegistry is the parallel runner's hazard: many
// goroutines folding per-point registries into one aggregate. Run under
// -race; before the lock-ordering fix the unsynchronized counter-map
// writes raced (and could corrupt the map outright).
func TestConcurrentMergeIntoOneRegistry(t *testing.T) {
	agg := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				agg.Merge(makeRegistry(int64(w*100 + i)))
			}
		}(w)
	}
	wg.Wait()
	if got := agg.Histogram("h").Count(); got != workers*50 {
		t.Fatalf("merged histogram count = %d, want %d", got, workers*50)
	}
	if agg.Counters().Get("c.b") != 2*agg.Counters().Get("c.a") {
		t.Fatalf("counter invariant broken: a=%d b=%d",
			agg.Counters().Get("c.a"), agg.Counters().Get("c.b"))
	}
}

// TestConcurrentAddAt: a timed counter resolved per call and one resolved
// once, on one registry from two goroutines. Run under -race; the counter-set write used to
// happen after the registry lock was released.
func TestConcurrentAddAt(t *testing.T) {
	r := NewRegistry()
	r.EnableSeries(64)
	h := r.TimedCounter("c.at")
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if w == 0 {
					r.TimedCounter("c.at").Add(int64(i), 1)
				} else {
					h.Add(int64(i), 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counters().Get("c.at"); got != 2000 {
		t.Fatalf("counter = %d after 2,000 increments", got)
	}
}

// TestConcurrentIntern: systems built on several goroutines resolve
// handles at once, so the process-wide name table is interned into
// concurrently. Every goroutine must get the same ID for a name, and the
// ID must name it back.
func TestConcurrentIntern(t *testing.T) {
	const workers, names = 4, 200
	ids := make([][]metricID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				// Each worker walks the names in its own order.
				n := fmt.Sprintf("intern.race.%d", (i*(w+1))%names)
				ids[w] = append(ids[w], metricIDs.ID(n))
				NewRegistry().Latency(n).Observe(int64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	for w := range ids {
		for i, id := range ids[w] {
			want := fmt.Sprintf("intern.race.%d", (i*(w+1))%names)
			if got := metricIDs.Names()[id]; got != want {
				t.Fatalf("worker %d: ID %d names %q, want %q", w, id, got, want)
			}
			if id2, ok := metricIDs.Lookup(want); !ok || id2 != id {
				t.Fatalf("lookup(%q) = %d, %v; interned as %d", want, id2, ok, id)
			}
		}
	}
}

// TestCrossMergeDoesNotDeadlock: a.Merge(b) while b.Merge(a) must finish
// (Merge takes the two registries' locks in creation order).
func TestCrossMergeDoesNotDeadlock(t *testing.T) {
	a, b := makeRegistry(1), makeRegistry(2)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); a.Merge(b) }()
		go func() { defer wg.Done(); b.Merge(a) }()
	}
	wg.Wait() // the test is that this returns
}

// TestConcurrentSeriesMerge: the same hazards with windowed series and
// SLOs enabled — per-point registries with per-window cells folding into
// one aggregate under -race.
func TestConcurrentSeriesMerge(t *testing.T) {
	agg := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				agg.Merge(makeSeriesRegistry(int64(w*100 + i)))
			}
		}(w)
	}
	wg.Wait()
	if got := agg.Histogram("h.obs").Count(); got != workers*50 {
		t.Fatalf("merged windowed histogram count = %d, want %d", got, workers*50)
	}
	if agg.SeriesWindow() != 64 {
		t.Fatalf("aggregate lost series config: %d", agg.SeriesWindow())
	}
}

// TestCrossMergeSeriesDoesNotDeadlock: a.Merge(b) alongside b.Merge(a)
// with series + SLO state on both sides — the gauge-integral and window
// folds run under the same fixed lock order.
func TestCrossMergeSeriesDoesNotDeadlock(t *testing.T) {
	a, b := makeSeriesRegistry(1), makeSeriesRegistry(2)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); a.Merge(b) }()
		go func() { defer wg.Done(); b.Merge(a) }()
	}
	wg.Wait() // the test is that this returns
}

// TestMergeSelfIsNoop: folding a registry into itself must not double its
// contents or deadlock.
func TestMergeSelfIsNoop(t *testing.T) {
	r := makeRegistry(5)
	r.Merge(r)
	if r.Counters().Get("c.a") != 5 {
		t.Fatalf("self-merge doubled counters: %d", r.Counters().Get("c.a"))
	}
	if r.Histogram("h").Count() != 1 {
		t.Fatalf("self-merge doubled histogram: %d", r.Histogram("h").Count())
	}
}

// TestMergeFoldOrderMatchesSequential: the experiment harness — parallel
// or not — gives every run its own registry and folds them into the
// experiment aggregate; the sequential runner folds them in point order
// as each run finishes. Re-deriving identical per-point registries and
// folding them in the same order must therefore reproduce the aggregate
// JSON byte for byte — the identity the parallel runner's output depends
// on. (It would NOT hold against one gauge sampled continuously across
// points: the inter-point hold weight differs. The harness never does
// that; this test documents the actual contract.)
func TestMergeFoldOrderMatchesSequential(t *testing.T) {
	point := func(i int64) *Registry {
		p := NewRegistry()
		p.Counters().Add("c", i)
		p.Histogram("h").Record(i * 10)
		// Several samples per point, so the gauge's time-weighted
		// integral is exercised through the merge.
		p.Gauge("g").Sample(i*100, float64(i))
		p.Gauge("g").Sample(i*100+50, float64(i+1))
		return p
	}
	sequential := NewRegistry()
	for i := int64(1); i <= 3; i++ {
		sequential.Merge(point(i))
	}
	parallel := NewRegistry()
	for i := int64(1); i <= 3; i++ {
		parallel.Merge(point(i)) // same points, same fold order
	}
	var a, b bytes.Buffer
	if err := sequential.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("folded JSON diverges from sequential:\n%s\nvs\n%s", b.String(), a.String())
	}
	if m := sequential.Gauge("g").Mean(); m == 0 {
		t.Fatal("gauge integral lost in merge")
	}
}

// TestCrossMergeLockOrder: many a.Merge(b) alongside many b.Merge(a), so
// the two folds overlap often enough that taking the locks in call order
// instead of creation order would deadlock.
func TestCrossMergeLockOrder(t *testing.T) {
	a, b := makeSeriesRegistry(1), makeSeriesRegistry(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a.Merge(b)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b.Merge(a)
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("a.Merge(b) alongside b.Merge(a) did not finish: lock-order deadlock")
	}
}
