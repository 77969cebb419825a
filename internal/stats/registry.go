package stats

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"morpheus/internal/jsonw"
)

// Registry joins the three metric kinds — monotonic counters, latency
// histograms, and sampled gauges — under one namespace so experiments
// and the bench binary can emit them together. Names follow the
// `unit.metric` convention ("nvme.MREAD.latency_ps", "flash.channel_util").
// Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	seq      uint64 // creation order, for Merge's lock order
	counters *Set
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	// series is the optional windowed time-series collector (EnableSeries);
	// slos the optional latency objectives (AddSLO), with sloByMetric the
	// dispatch index ObserveLatency consults. All nil by default so plain
	// registries keep their PR-2 behavior and artifact schema.
	series      *seriesData
	slos        map[string]*sloState
	sloByMetric map[string][]*sloState
}

// NewRegistry returns an empty registry with a fresh counter set.
func NewRegistry() *Registry {
	return &Registry{
		seq:      registrySeq.Add(1),
		counters: NewSet(),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
	}
}

// Counters returns the registry's counter set. The models write to it
// directly; Set is the same type they always used.
func (r *Registry) Counters() *Set { return r.counters }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histLocked(name)
}

func (r *Registry) histLocked(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(name)
}

func (r *Registry) gaugeLocked(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// registrySeq numbers registries in creation order; Merge locks the
// lower-numbered of two registries first.
var registrySeq atomic.Uint64

// Merge folds every metric of o into r: counters add, histograms merge
// bucket-wise, gauges merge as summaries, series windows and SLO counts
// add window by window. Used by experiments that run several systems
// (tenants, modes, parallel sweep points) and want one aggregate
// emission. Both registries are locked for the fold, always the older one
// (by creation) first, so concurrent merges, even a.Merge(b) alongside
// b.Merge(a), cannot deadlock.
//
// Every metric of r receives at most one add from o, so the order in
// which o's maps are walked cannot change a float fold; the result
// depends only on the order callers merge sources in.
func (r *Registry) Merge(o *Registry) {
	if o == nil || o == r {
		return
	}
	first, second := r, o
	if o.seq < r.seq {
		first, second = o, r
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()

	if so := o.series; so != nil {
		o.closeCounterWindowLocked()
		if r.series == nil {
			r.series = newSeries(so.window)
		}
		for idx, src := range so.cells {
			dst := r.series.cell(idx)
			for n, v := range src.counters {
				dst.counters[n] += v
			}
			for n, h := range src.hists {
				dst.hist(n).Merge(h)
			}
			for n, g := range src.gauges {
				dst.gauge(n).Merge(g)
			}
		}
	}
	for n, v := range o.counters.counters {
		r.counters.counters[n] += v
		if r.series != nil {
			// The source already attributed these totals to windows;
			// raise the receiver's boundary snapshot past them so its
			// own next window close doesn't re-attribute them.
			r.series.lastSnap[n] += v
		}
	}
	for _, src := range o.slos {
		dst := r.addSLOLocked(src.cfg)
		dst.total += src.total
		dst.bad += src.bad
		for idx, w := range src.windows {
			dw := dst.windows[idx]
			if dw == nil {
				dw = &sloWindow{}
				dst.windows[idx] = dw
			}
			dw.total += w.total
			dw.bad += w.bad
		}
	}
	for n, h := range o.hists {
		r.histLocked(n).Merge(h)
	}
	for n, g := range o.gauges {
		r.gaugeLocked(n).Merge(g)
	}
}

// Reset clears every metric. Series and SLO configuration survive (a
// system's registry is reset between staging and the measured run) but
// their collected windows and counts are cleared.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.Reset()
	r.hists = make(map[string]*Histogram)
	r.gauges = make(map[string]*Gauge)
	if r.series != nil {
		r.series = newSeries(r.series.window)
	}
	for _, s := range r.slos {
		s.total, s.bad = 0, 0
		s.windows = map[int64]*sloWindow{}
	}
}

// sortedNames appends m's keys to dst in sort.Strings order, the order
// encoding/json gives map keys.
func sortedNames[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

// WriteJSON emits a machine-readable snapshot of every metric: counters,
// histograms (with their non-empty buckets), gauges and, when any are
// registered, the SLO summary, each keyed by metric name in sorted order.
// A NaN or infinite gauge value fails it with *json.UnsupportedValueError.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	jw := jsonw.New(w)
	jw.BeginObject()
	jw.Key("counters")
	jw.BeginObject()
	for _, n := range sortedNames(nil, r.counters.counters) {
		jw.Key(n)
		jw.Int(r.counters.counters[n])
	}
	jw.EndObject()
	jw.Key("histograms")
	jw.BeginObject()
	for _, n := range sortedNames(nil, r.hists) {
		jw.Key(n)
		writeHist(jw, r.hists[n], true)
	}
	jw.EndObject()
	jw.Key("gauges")
	jw.BeginObject()
	for _, n := range sortedNames(nil, r.gauges) {
		jw.Key(n)
		writeGauge(jw, r.gauges[n])
	}
	jw.EndObject()
	if len(r.slos) > 0 {
		jw.Key("slos")
		r.writeSLOSummaryLocked(jw)
	}
	jw.EndObject()
	return jw.Close()
}

// writeHist writes a histogram's summary object; the run-wide artifact
// adds its non-empty buckets, the per-window rows do not.
func writeHist(jw *jsonw.Writer, h *Histogram, buckets bool) {
	jw.BeginObject()
	jw.Key("count")
	jw.Int(h.Count())
	jw.Key("sum")
	jw.Int(h.Sum())
	jw.Key("min")
	jw.Int(h.Min())
	jw.Key("max")
	jw.Int(h.Max())
	jw.Key("p50")
	jw.Int(h.Quantile(0.5))
	jw.Key("p95")
	jw.Int(h.Quantile(0.95))
	jw.Key("p99")
	jw.Int(h.Quantile(0.99))
	var bs []BucketCount
	if buckets {
		bs = h.Buckets()
	}
	if len(bs) > 0 {
		jw.Key("buckets")
		jw.BeginArray()
		for _, b := range bs {
			jw.BeginObject()
			jw.Key("Upper")
			jw.Int(b.Upper)
			jw.Key("Count")
			jw.Int(b.Count)
			jw.EndObject()
		}
		jw.EndArray()
	}
	jw.EndObject()
}

// writeGauge writes a gauge's summary object.
func writeGauge(jw *jsonw.Writer, g *Gauge) {
	jw.BeginObject()
	jw.Key("samples")
	jw.Int(g.Samples())
	jw.Key("last")
	jw.Float(g.Last())
	jw.Key("min")
	jw.Float(g.Min())
	jw.Key("max")
	jw.Float(g.Max())
	jw.Key("mean")
	jw.Float(g.Mean())
	jw.EndObject()
}
