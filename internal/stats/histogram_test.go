package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 ||
		h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must read all zeros")
	}
	if h.Buckets() != nil {
		t.Fatal("empty histogram has no buckets")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(1000)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %d, want 1000 (clamped to min=max)", q, got)
		}
	}
	if h.Min() != 1000 || h.Max() != 1000 || h.Mean() != 1000 {
		t.Fatalf("min/max/mean = %d/%d/%v", h.Min(), h.Max(), h.Mean())
	}
}

// trueQuantile returns the exact rank-⌈q·n⌉ order statistic, the same
// rank rule Quantile estimates.
func trueQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileProperties drives seeded random workloads through
// the histogram and checks the two estimator guarantees: monotonicity
// (p50 ≤ p95 ≤ p99 ≤ max) and bounded error (the estimate never falls
// below the true quantile and never exceeds the upper bound of the bucket
// the true quantile lands in).
func TestHistogramQuantileProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 100 + rng.Intn(2000)
		vals := make([]int64, n)
		for i := range vals {
			// Mix of magnitudes, like latencies spanning ns..ms in ps.
			v := rng.Int63n(int64(1) << uint(10+rng.Intn(35)))
			vals[i] = v
			h.Record(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

		p50, p95, p99, max := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max()
		if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
			t.Fatalf("seed %d: quantiles not monotone: p50=%d p95=%d p99=%d max=%d",
				seed, p50, p95, p99, max)
		}
		if max != vals[n-1] {
			t.Fatalf("seed %d: max = %d, want %d", seed, max, vals[n-1])
		}
		if h.Min() != vals[0] {
			t.Fatalf("seed %d: min = %d, want %d", seed, h.Min(), vals[0])
		}
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
			est, exact := h.Quantile(q), trueQuantile(vals, q)
			if est < exact {
				t.Fatalf("seed %d q=%v: estimate %d undershoots true %d", seed, q, est, exact)
			}
			if upper := bucketUpper(bucketOf(exact)); est > upper {
				t.Fatalf("seed %d q=%v: estimate %d exceeds bucket upper %d of true %d",
					seed, q, est, upper, exact)
			}
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := rng.Int63n(1 << 30)
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	a.Merge(nil) // no-op
	var empty Histogram
	a.Merge(&empty) // merging empty changes nothing
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge lost observations: %d/%d vs %d/%d",
			a.Count(), a.Sum(), whole.Count(), whole.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("merged Quantile(%v) = %d, direct = %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Record(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestGaugeTimeWeightedMean(t *testing.T) {
	var g Gauge
	// Value 1.0 for 10 time units, then 3.0 for 30: mean = (10+90)/40 = 2.5.
	g.Sample(0, 1)
	g.Sample(10, 3)
	g.Sample(40, 5)
	if m := g.Mean(); m != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m)
	}
	if g.Last() != 5 || g.Min() != 1 || g.Max() != 5 || g.Samples() != 3 {
		t.Fatalf("last/min/max/samples = %v/%v/%v/%d", g.Last(), g.Min(), g.Max(), g.Samples())
	}
}

func TestGaugeOutOfOrderSamples(t *testing.T) {
	var g Gauge
	g.Sample(100, 2)
	g.Sample(50, 8) // out of order: must not add negative weight
	g.Sample(200, 2)
	if m := g.Mean(); m < 0 || m > 8 {
		t.Fatalf("mean %v escaped the sampled range after out-of-order sample", m)
	}
}

func TestGaugeMerge(t *testing.T) {
	var a, b Gauge
	a.Sample(0, 2)
	a.Sample(100, 2)
	b.Sample(100, 4)
	b.Sample(200, 4)
	a.Merge(&b)
	a.Merge(nil)
	if a.Samples() != 4 || a.Min() != 2 || a.Max() != 4 {
		t.Fatalf("samples/min/max = %d/%v/%v", a.Samples(), a.Min(), a.Max())
	}
	// Two equal-length intervals at 2 and 4 average to 3.
	if m := a.Mean(); m != 3 {
		t.Fatalf("merged mean = %v, want 3", m)
	}
}

// TestGaugeMergeLastIsTemporal: the merged last value must come from the
// gauge that sampled later on the virtual clock, regardless of merge call
// order. (Before the fix, Merge took the merged-in gauge's last
// unconditionally, so folding an earlier-ending interval clobbered the
// utilization a later interval left behind.)
func TestGaugeMergeLastIsTemporal(t *testing.T) {
	late := func() *Gauge { g := &Gauge{}; g.Sample(200, 9); return g }
	early := func() *Gauge { g := &Gauge{}; g.Sample(100, 5); return g }

	a := late()
	a.Merge(early()) // late.Merge(early): last must stay the later sample
	if a.Last() != 9 {
		t.Fatalf("late.Merge(early).Last() = %g, want 9", a.Last())
	}
	b := early()
	b.Merge(late()) // either direction agrees
	if b.Last() != 9 {
		t.Fatalf("early.Merge(late).Last() = %g, want 9", b.Last())
	}
	// Equal timestamps carry no temporal order between sources, so the
	// tie must resolve the same way in either merge direction (the larger
	// value) — N shards folding one virtual clock would otherwise leave
	// the outcome to merge order.
	mk := func(v float64) *Gauge { g := &Gauge{}; g.Sample(100, v); return g }
	c := mk(1)
	c.Merge(mk(2))
	if c.Last() != 2 {
		t.Fatalf("tie merge Last() = %g, want 2", c.Last())
	}
	d := mk(2)
	d.Merge(mk(1))
	if d.Last() != 2 {
		t.Fatalf("reversed tie merge Last() = %g, want 2", d.Last())
	}
}

func TestSetMergeAndSnapshot(t *testing.T) {
	a, b := NewSet(), NewSet()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 5)
	a.Merge(b)
	a.Merge(nil)
	if a.Get("x") != 3 || a.Get("y") != 5 {
		t.Fatalf("merge: x=%d y=%d", a.Get("x"), a.Get("y"))
	}
	snap := a.Snapshot()
	a.Add("x", 100)
	if snap.Get("x") != 3 {
		t.Fatal("snapshot must not see later writes")
	}
	if names := snap.Names(); len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("snapshot names = %v", names)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("a.lat")
	h1.Record(7)
	if r.Histogram("a.lat") != h1 {
		t.Fatal("Histogram must return the same instance per name")
	}
	g1 := r.Gauge("a.util")
	if r.Gauge("a.util") != g1 {
		t.Fatal("Gauge must return the same instance per name")
	}
	r.Reset()
	if r.Histogram("a.lat").Count() != 0 {
		t.Fatal("reset must clear histograms")
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counters().Add("c", 1)
	b.Counters().Add("c", 2)
	a.Histogram("h").Record(10)
	b.Histogram("h").Record(20)
	b.Gauge("g").Sample(0, 1)
	a.Merge(b)
	a.Merge(nil)
	if a.Counters().Get("c") != 3 {
		t.Fatalf("counter = %d", a.Counters().Get("c"))
	}
	if a.Histogram("h").Count() != 2 || a.Histogram("h").Max() != 20 {
		t.Fatalf("hist count=%d max=%d", a.Histogram("h").Count(), a.Histogram("h").Max())
	}
	if a.Gauge("g").Samples() != 1 {
		t.Fatalf("gauge samples = %d", a.Gauge("g").Samples())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("c", 7)
	r.Histogram("h").Record(100)
	r.Gauge("g").Sample(10, 2.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Counters   map[string]int64     `json:"counters"`
		Histograms map[string]histJSON  `json:"histograms"`
		Gauges     map[string]gaugeJSON `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if got.Counters["c"] != 7 {
		t.Fatalf("counters = %v", got.Counters)
	}
	if h := got.Histograms["h"]; h.Count != 1 || h.Min != 100 || h.Max != 100 || h.P50 != 100 {
		t.Fatalf("histogram = %+v", h)
	}
	if g := got.Gauges["g"]; g.Samples != 1 || g.Last != 2.5 {
		t.Fatalf("gauge = %+v", g)
	}
	// Determinism: encode twice, compare bytes.
	var buf2 bytes.Buffer
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSON is not deterministic")
	}
}

// TestWinHistMatchesHistData: a window histogram fed any sequence of
// observations and merges holds the summary, bucket counts and quantiles
// of a full histogram fed the same, whether its counts stay inside its
// inline span or spill into the full array.
func TestWinHistMatchesHistData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(1 << 20) // a narrow band: stays inline
		case 1:
			return rng.Int63() >> uint(rng.Intn(63)) // any magnitude
		case 2:
			return -rng.Int63n(1000)
		default:
			return 1 << 30
		}
	}
	for round := 0; round < 500; round++ {
		var w [3]winHist
		var d [3]histData
		for k := range w {
			for n := rng.Intn(20); n > 0; n-- {
				v := values()
				w[k].record(v)
				d[k].record(v)
			}
		}
		w[0].merge(&w[1])
		d[0].merge(&d[1])
		w[2].merge(&w[0])
		d[2].merge(&d[0])
		for k := range w {
			if w[k].histSummary != d[k].histSummary {
				t.Fatalf("round %d: summary %+v, want %+v", round, w[k].histSummary, d[k].histSummary)
			}
			for i := 0; i < histBuckets; i++ {
				if w[k].bucket(i) != d[k].buckets[i] {
					t.Fatalf("round %d: bucket %d = %d, want %d", round, i, w[k].bucket(i), d[k].buckets[i])
				}
			}
			for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
				if w[k].quantile(q) != d[k].quantile(q) {
					t.Fatalf("round %d: q%v = %d, want %d", round, q, w[k].quantile(q), d[k].quantile(q))
				}
			}
		}
	}
}
