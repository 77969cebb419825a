package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// observed returns the histogram view of a metric that saw vals, written
// through a Latency handle.
func observed(vals ...int64) *Histogram {
	r := NewRegistry()
	l := r.Latency("h")
	for _, v := range vals {
		l.Observe(0, v)
	}
	return r.Histogram("h")
}

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
	h := observed(1000)
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
		n := 100 + rng.Intn(2000)
		vals := make([]int64, n)
		for i := range vals {
			// Mix of magnitudes, like latencies spanning ns..ms in ps.
			vals[i] = rng.Int63n(int64(1) << uint(10+rng.Intn(35)))
		}
		h := observed(vals...)
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
	var all, even, odd []int64
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := rng.Int63n(1 << 30)
		all = append(all, v)
		if i%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	a, whole := observed(even...), observed(all...)
	a.Merge(observed(odd...))
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

// sampled returns the gauge view of a metric that saw the samples, each a
// (virtual time, value) pair, written through a Sampler handle.
func sampled(samples ...[2]float64) *Gauge {
	r := NewRegistry()
	p := r.Sampler("g")
	for _, s := range samples {
		p.Sample(int64(s[0]), s[1])
	}
	return r.Gauge("g")
}

func TestGaugeTimeWeightedMean(t *testing.T) {
	// Value 1.0 for 10 time units, then 3.0 for 30: mean = (10+90)/40 = 2.5.
	g := sampled([2]float64{0, 1}, [2]float64{10, 3}, [2]float64{40, 5})
	if m := g.Mean(); m != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m)
	}
	if g.Last() != 5 || g.Min() != 1 || g.Max() != 5 || g.Samples() != 3 {
		t.Fatalf("last/min/max/samples = %v/%v/%v/%d", g.Last(), g.Min(), g.Max(), g.Samples())
	}
}

func TestGaugeOutOfOrderSamples(t *testing.T) {
	// The sample at 50 is out of order: it must not add negative weight.
	g := sampled([2]float64{100, 2}, [2]float64{50, 8}, [2]float64{200, 2})
	if m := g.Mean(); m < 0 || m > 8 {
		t.Fatalf("mean %v escaped the sampled range after out-of-order sample", m)
	}
}

func TestGaugeMerge(t *testing.T) {
	var a, b gaugeData
	a.sample(0, 2)
	a.sample(100, 2)
	b.sample(100, 4)
	b.sample(200, 4)
	a.merge(&b)
	a.merge(&gaugeData{}) // merging empty changes nothing
	if a.samples != 4 || a.min != 2 || a.max != 4 {
		t.Fatalf("samples/min/max = %d/%v/%v", a.samples, a.min, a.max)
	}
	// Two equal-length intervals at 2 and 4 average to 3.
	if m := a.mean(); m != 3 {
		t.Fatalf("merged mean = %v, want 3", m)
	}
}

// TestGaugeMergeLastIsTemporal: the merged last value must come from the
// gauge that sampled later on the virtual clock, regardless of merge call
// order. (Before the fix, Merge took the merged-in gauge's last
// unconditionally, so folding an earlier-ending interval clobbered the
// utilization a later interval left behind.)
func TestGaugeMergeLastIsTemporal(t *testing.T) {
	mk := func(t int64, v float64) *gaugeData { g := &gaugeData{}; g.sample(t, v); return g }
	late := func() *gaugeData { return mk(200, 9) }
	early := func() *gaugeData { return mk(100, 5) }

	a := late()
	a.merge(early()) // late.merge(early): last must stay the later sample
	if a.last != 9 {
		t.Fatalf("late.merge(early).last = %g, want 9", a.last)
	}
	b := early()
	b.merge(late()) // either direction agrees
	if b.last != 9 {
		t.Fatalf("early.merge(late).last = %g, want 9", b.last)
	}
	// Equal timestamps carry no temporal order between sources, so the
	// tie must resolve the same way in either merge direction (the larger
	// value) — N shards folding one virtual clock would otherwise leave
	// the outcome to merge order.
	c := mk(100, 1)
	c.merge(mk(100, 2))
	if c.last != 2 {
		t.Fatalf("tie merge last = %g, want 2", c.last)
	}
	d := mk(100, 2)
	d.merge(mk(100, 1))
	if d.last != 2 {
		t.Fatalf("reversed tie merge last = %g, want 2", d.last)
	}
}

func TestSetMergeAndSnapshot(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.TimedCounter("x").Add(0, 1)
	rb.TimedCounter("x").Add(0, 2)
	rb.TimedCounter("y").Add(0, 5)
	a := NewSet()
	a.Merge(ra.Counters())
	a.Merge(rb.Counters())
	a.Merge(nil)
	if a.Get("x") != 3 || a.Get("y") != 5 {
		t.Fatalf("merge: x=%d y=%d", a.Get("x"), a.Get("y"))
	}
	snap := a.Snapshot()
	a.Merge(ra.Counters())
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
	r.Latency("a.lat").Observe(0, 7)
	if r.Histogram("a.lat") != h1 || h1.Count() != 1 {
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
	a.TimedCounter("c").Add(0, 1)
	b.TimedCounter("c").Add(0, 2)
	a.Latency("h").Observe(0, 10)
	b.Latency("h").Observe(0, 20)
	b.Sampler("g").Sample(0, 1)
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
	r.TimedCounter("c").Add(0, 7)
	r.Latency("h").Observe(0, 100)
	r.Sampler("g").Sample(10, 2.5)
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

// TestQuantilesOnePass holds the one-pass quantiles the writers use to
// one quantile per pass, on histograms large enough that several
// quantiles share a bucket below the last.
func TestQuantilesOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		var d histData
		base := rng.Int63n(1 << 40)
		for n := 1 + rng.Intn(2000); n > 0; n-- {
			v := base + rng.Int63n(1+base/4)
			if rng.Intn(50) == 0 {
				v *= 64 // a tail a few buckets up
			}
			d.record(v)
		}
		for _, qs := range [][]float64{summaryQuantiles, {0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}} {
			got := make([]int64, len(qs))
			d.quantiles(qs, d.bucket, got)
			for j, q := range qs {
				if want := d.quantile(q); got[j] != want {
					t.Fatalf("round %d: q%v = %d in one pass, %d alone", round, q, got[j], want)
				}
			}
		}
	}
}
