package stats

import (
	"math"
	"math/bits"
	"sync"
)

// histBuckets is one bucket per power of two of an int64, plus bucket 0
// for non-positive values: bucket i (i ≥ 1) covers [2^(i-1), 2^i - 1].
const histBuckets = 65

// Histogram is a log-bucketed latency histogram: O(1) record, fixed
// memory, and quantile estimates whose error is bounded by the width of
// the bucket the quantile lands in (i.e. at most the true value itself,
// since bucket width < bucket lower bound). Values are int64 — by
// convention picoseconds for latency metrics, but any non-negative
// quantity works. Safe for concurrent use; the zero value is ready.
//
// A registry's histograms share the registry's lock (reg), so a handle
// observation takes that one lock and writes the data directly.
type Histogram struct {
	mu  sync.Mutex
	reg *sync.Mutex // the owning registry's lock; nil for a standalone histogram
	d   histData
}

// histData is a histogram's state without a lock; Histogram wraps it.
type histData struct {
	buckets [histBuckets]int64
	histSummary
}

// histSummary is a histogram's count, sum and range. Every observation
// lies in [min, max], so no bucket outside bucketOf(min)..bucketOf(max)
// holds any.
type histSummary struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

// note adds observation v to the summary.
func (s *histSummary) note(v int64) {
	s.count++
	s.sum += v
	if s.count == 1 || v < s.min {
		s.min = v
	}
	if s.count == 1 || v > s.max {
		s.max = v
	}
}

// fold adds o's observations to the summary.
func (s *histSummary) fold(o *histSummary) {
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
}

// locked takes the histogram's lock and returns it for the deferred
// unlock.
func (h *Histogram) locked() *sync.Mutex {
	l := &h.mu
	if h.reg != nil {
		l = h.reg
	}
	l.Lock()
	return l
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper returns the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	defer h.locked().Unlock()
	h.d.record(v)
}

func (d *histData) record(v int64) {
	d.buckets[bucketOf(v)]++
	d.note(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	defer h.locked().Unlock()
	return h.d.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	defer h.locked().Unlock()
	return h.d.sum
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	defer h.locked().Unlock()
	return h.d.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	defer h.locked().Unlock()
	return h.d.max
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	defer h.locked().Unlock()
	if h.d.count == 0 {
		return 0
	}
	return float64(h.d.sum) / float64(h.d.count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the rank-⌈q·count⌉ observation, clamped to the
// observed [min, max]. The estimate never undershoots the true quantile
// by more than zero and never overshoots it by more than the bucket
// width, and is monotone in q. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	defer h.locked().Unlock()
	return h.d.quantile(q)
}

func (d *histData) quantile(q float64) int64 {
	return d.histSummary.quantile(q, func(i int) int64 { return d.buckets[i] })
}

// quantile is Quantile for a histogram with summary s whose bucket i
// holds bucket(i) observations.
func (s *histSummary) quantile(q float64, bucket func(i int) int64) int64 {
	if s.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var cum int64
	for i := bucketOf(s.min); i < histBuckets; i++ {
		cum += bucket(i)
		if cum >= rank {
			v := bucketUpper(i)
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// Merge adds every observation of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	l := o.locked()
	src := o.d
	l.Unlock()
	defer h.locked().Unlock()
	h.d.merge(&src)
}

func (d *histData) merge(o *histData) {
	if o.count == 0 {
		return
	}
	for i := bucketOf(o.min); i <= bucketOf(o.max); i++ {
		d.buckets[i] += o.buckets[i]
	}
	d.fold(&o.histSummary)
}

// spanBuckets is how many consecutive buckets a window histogram keeps
// inline, a factor of 2^16 between its smallest and largest value.
const spanBuckets = 16

// winHist is one series window's histogram. The series holds one per
// metric per window, about 105,000 per repetition of the array-degraded
// benchmark (shard registries and their merge), so it stores only the
// buckets lo..lo+spanBuckets-1 inline, centred on its first observation.
// The first count outside that span moves every count into a full bucket
// array; 6 of those 105,000 do. Against a full histData per window this
// cuts that workload's rss_p90_mb from 125 to 93 MB. The summary and
// every bucket count, and so every quantile, are those of a histData fed
// the same observations.
type winHist struct {
	histSummary
	lo   int
	span [spanBuckets]int64
	all  *[histBuckets]int64 // every bucket, once a count fell outside span
}

func (w *winHist) record(v int64) {
	i := bucketOf(v)
	if w.count == 0 {
		w.lo = min(max(i-spanBuckets/2, 0), histBuckets-spanBuckets)
	}
	w.add(i, 1)
	w.note(v)
}

// add adds c observations to bucket i.
func (w *winHist) add(i int, c int64) {
	if w.all == nil {
		if j := i - w.lo; j >= 0 && j < spanBuckets {
			w.span[j] += c
			return
		}
		w.all = new([histBuckets]int64)
		copy(w.all[w.lo:], w.span[:])
	}
	w.all[i] += c
}

// bucket returns bucket i's count.
func (w *winHist) bucket(i int) int64 {
	if w.all != nil {
		return w.all[i]
	}
	if j := i - w.lo; j >= 0 && j < spanBuckets {
		return w.span[j]
	}
	return 0
}

func (w *winHist) merge(o *winHist) {
	if o.count == 0 {
		return
	}
	if w.count == 0 {
		w.lo = o.lo
	}
	for i := bucketOf(o.min); i <= bucketOf(o.max); i++ {
		if c := o.bucket(i); c != 0 {
			w.add(i, c)
		}
	}
	w.fold(&o.histSummary)
}

func (w *winHist) quantile(q float64) int64 { return w.histSummary.quantile(q, w.bucket) }

// Buckets returns the non-empty buckets as (upper bound, count) pairs in
// ascending order, for rendering.
func (h *Histogram) Buckets() []BucketCount {
	defer h.locked().Unlock()
	return h.d.appendBuckets(nil)
}

func (d *histData) appendBuckets(out []BucketCount) []BucketCount {
	for i, c := range d.buckets {
		if c > 0 {
			out = append(out, BucketCount{Upper: bucketUpper(i), Count: c})
		}
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Upper int64 // largest value the bucket can hold
	Count int64
}

// Gauge tracks a sampled quantity over virtual time: the last value, the
// range, and the time-weighted mean (each sample holds until the next).
// Safe for concurrent use; the zero value is ready. Like Histogram, a
// registry's gauges share the registry's lock.
type Gauge struct {
	mu  sync.Mutex
	reg *sync.Mutex // the owning registry's lock; nil for a standalone gauge
	d   gaugeData
}

// gaugeData is a gauge's state without a lock.
type gaugeData struct {
	samples  int64
	last     float64
	min      float64
	max      float64
	weighted float64 // integral of value dt since the first sample
	firstT   int64
	lastT    int64
}

// locked takes the gauge's lock and returns it for the deferred unlock.
func (g *Gauge) locked() *sync.Mutex {
	l := &g.mu
	if g.reg != nil {
		l = g.reg
	}
	l.Lock()
	return l
}

// Sample records value v at virtual time t (picoseconds). Out-of-order
// samples (t before the previous sample) update the value without
// accumulating negative weight.
func (g *Gauge) Sample(t int64, v float64) {
	defer g.locked().Unlock()
	g.d.sample(t, v)
}

func (g *gaugeData) sample(t int64, v float64) {
	if g.samples == 0 {
		g.firstT = t
		g.min, g.max = v, v
	} else {
		if dt := t - g.lastT; dt > 0 {
			g.weighted += g.last * float64(dt)
		}
		if v < g.min {
			g.min = v
		}
		if v > g.max {
			g.max = v
		}
	}
	g.samples++
	g.last = v
	if t > g.lastT || g.samples == 1 {
		g.lastT = t
	}
}

// Samples returns the number of recorded samples.
func (g *Gauge) Samples() int64 {
	defer g.locked().Unlock()
	return g.d.samples
}

// Last returns the most recent sample value.
func (g *Gauge) Last() float64 {
	defer g.locked().Unlock()
	return g.d.last
}

// Min returns the smallest sample value.
func (g *Gauge) Min() float64 {
	defer g.locked().Unlock()
	return g.d.min
}

// Max returns the largest sample value.
func (g *Gauge) Max() float64 {
	defer g.locked().Unlock()
	return g.d.max
}

// Mean returns the time-weighted mean over the sampled interval, or the
// plain last value when the interval is empty.
func (g *Gauge) Mean() float64 {
	defer g.locked().Unlock()
	return g.d.mean()
}

func (g *gaugeData) mean() float64 {
	span := g.lastT - g.firstT
	if g.samples == 0 || span <= 0 {
		return g.last
	}
	return g.weighted / float64(span)
}

// Merge folds o's samples into g as summary statistics: counts add, the
// range widens, and the time-weighted integrals concatenate so the merged
// mean weights each gauge by its own sampled interval. The merged last
// value is temporal, not call-ordered: it comes from whichever gauge
// sampled later on the virtual clock. Samples from different sources at
// the same instant have no temporal order at all, so ties resolve to the
// larger value — a commutative rule, which is what keeps an N-way fold
// (shards sharing one virtual clock) identical under any merge order.
func (g *Gauge) Merge(o *Gauge) {
	if o == nil {
		return
	}
	l := o.locked()
	src := o.d
	l.Unlock()
	defer g.locked().Unlock()
	g.d.merge(&src)
}

func (g *gaugeData) merge(o *gaugeData) {
	if o.samples == 0 {
		return
	}
	if g.samples == 0 {
		g.min, g.max, g.firstT, g.lastT = o.min, o.max, o.firstT, o.lastT
		g.last = o.last
	} else {
		if o.min < g.min {
			g.min = o.min
		}
		if o.max > g.max {
			g.max = o.max
		}
		if o.firstT < g.firstT {
			g.firstT = o.firstT
		}
		if o.lastT > g.lastT || (o.lastT == g.lastT && o.last > g.last) {
			g.lastT = o.lastT
			g.last = o.last
		}
	}
	g.samples += o.samples
	g.weighted += o.weighted
}
