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
//
// Metrics live in dense slices indexed by interned metric ID. Hot paths
// resolve a name once to a handle (Latency, Sampler, TimedCounter, or
// Set.Counter for raw counter writes) and observe through it: one lock,
// no name hashing. A caller that writes rarely may resolve per call
// (Latency(name).Observe). Resolving a handle adds nothing to any
// artifact; only an observation does.
type Registry struct {
	mu       sync.Mutex
	seq      uint64 // creation order, for Merge's lock order
	counters *Set
	lats     []*latMetric // by metricID; nil until resolved
	gauges   []*Gauge     // by metricID; nil until sampled
	// series is the optional windowed time-series collector
	// (EnableSeries); slos the optional latency objectives (AddSLO), each
	// also listed on the latMetric it watches. Both nil by default so
	// plain registries keep their PR-2 behavior and artifact schema.
	series *seriesData
	slos   map[string]*sloState
}

// latMetric is one latency metric's registry state: its run-wide
// histogram (nil until the first observation or Histogram call, so a
// resolved but unobserved metric stays out of the artifacts) and the
// objectives watching it.
type latMetric struct {
	id   metricID
	h    *Histogram
	slos []*sloState // in key order
}

// NewRegistry returns an empty registry with a fresh counter set.
func NewRegistry() *Registry {
	return &Registry{seq: registrySeq.Add(1), counters: NewSet()}
}

// Counters returns the registry's counter set. The models write to it
// directly; Set is the same type they always used.
func (r *Registry) Counters() *Set { return r.counters }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	id := metricIDs.ID(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histLocked(r.latLocked(id))
}

// latLocked returns id's latency slot, creating it. Caller holds r.mu.
func (r *Registry) latLocked(id metricID) *latMetric {
	r.lats = grow(r.lats, id, 0)
	m := r.lats[id]
	if m == nil {
		m = &latMetric{id: id}
		r.lats[id] = m
	}
	return m
}

// histLocked returns m's run-wide histogram, creating it. Caller holds
// r.mu.
func (r *Registry) histLocked(m *latMetric) *Histogram {
	if m.h == nil {
		m.h = &Histogram{reg: &r.mu}
	}
	return m.h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	id := metricIDs.ID(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaugeLocked(id)
}

// gaugeLocked returns gauge id, creating it. Caller holds r.mu.
func (r *Registry) gaugeLocked(id metricID) *Gauge {
	r.gauges = grow(r.gauges, id, 0)
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{reg: &r.mu}
		r.gauges[id] = g
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
// The fold walks o's dense slices and adds index by index. Every metric
// of r receives at most one add from o, so the walk order cannot change a
// float fold; the result depends only on the order callers merge sources
// in.
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
			r.series.mergeCell(idx, src)
		}
	}
	for id, c := range o.counters.vals {
		if !c.set {
			continue
		}
		r.counters.slot(metricID(id)).add(c.v)
		if s := r.series; s != nil {
			// The source already attributed these totals to windows;
			// raise the receiver's boundary snapshot past them so its
			// own next window close doesn't re-attribute them.
			s.lastSnap = grow(s.lastSnap, metricID(id), 0)
			s.lastSnap[id] += c.v
		}
	}
	for _, src := range o.slos {
		r.addSLOLocked(src.cfg).merge(src)
	}
	for _, m := range o.lats {
		if m != nil && m.h != nil {
			r.histLocked(r.latLocked(m.id)).d.merge(&m.h.d)
		}
	}
	for id, g := range o.gauges {
		if g != nil {
			r.gaugeLocked(metricID(id)).d.merge(&g.d)
		}
	}
}

// Reset clears every metric. Series and SLO configuration survive (a
// system's registry is reset between staging and the measured run) but
// their collected windows and counts are cleared. Resolved handles stay
// valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.Reset()
	for _, m := range r.lats {
		if m != nil {
			m.h = nil
		}
	}
	clear(r.gauges)
	if r.series != nil {
		r.series = newSeries(r.series.window)
	}
	for _, s := range r.slos {
		s.reset()
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
	names := metricIDs.Names()
	jw := jsonw.New(w)
	jw.BeginObject()
	jw.Key("counters")
	jw.BeginObject()
	ids := setIDs(nil, r.counters.vals)
	sortByName(ids)
	for _, id := range ids {
		jw.Key(names[id])
		jw.Int(r.counters.vals[id].v)
	}
	jw.EndObject()
	jw.Key("histograms")
	jw.BeginObject()
	ids = ids[:0]
	for id, m := range r.lats {
		if m != nil && m.h != nil {
			ids = append(ids, metricID(id))
		}
	}
	sortByName(ids)
	for _, id := range ids {
		jw.Key(names[id])
		d := &r.lats[id].h.d
		writeHist(jw, &d.histSummary, d.quantile, d.appendBuckets(nil))
	}
	jw.EndObject()
	jw.Key("gauges")
	jw.BeginObject()
	ids = presentIDs(ids[:0], r.gauges)
	sortByName(ids)
	for _, id := range ids {
		jw.Key(names[id])
		writeGauge(jw, &r.gauges[id].d)
	}
	jw.EndObject()
	if len(r.slos) > 0 {
		jw.Key("slos")
		r.writeSLOSummaryLocked(jw)
	}
	jw.EndObject()
	return jw.Close()
}

// presentIDs appends the IDs of s's non-nil entries to dst.
func presentIDs[T any](dst []metricID, s []*T) []metricID {
	for id, p := range s {
		if p != nil {
			dst = append(dst, metricID(id))
		}
	}
	return dst
}

// writeHist writes a histogram's summary object and, when bs holds any,
// its non-empty buckets: the run-wide artifact lists them, the
// per-window rows do not.
func writeHist(jw *jsonw.Writer, h *histSummary, quantile func(float64) int64, bs []BucketCount) {
	jw.BeginObject()
	jw.Key("count")
	jw.Int(h.count)
	jw.Key("sum")
	jw.Int(h.sum)
	jw.Key("min")
	jw.Int(h.min)
	jw.Key("max")
	jw.Int(h.max)
	jw.Key("p50")
	jw.Int(quantile(0.5))
	jw.Key("p95")
	jw.Int(quantile(0.95))
	jw.Key("p99")
	jw.Int(quantile(0.99))
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
func writeGauge(jw *jsonw.Writer, g *gaugeData) {
	jw.BeginObject()
	jw.Key("samples")
	jw.Int(g.samples)
	jw.Key("last")
	jw.Float(g.last)
	jw.Key("min")
	jw.Float(g.min)
	jw.Key("max")
	jw.Float(g.max)
	jw.Key("mean")
	jw.Float(g.mean())
	jw.EndObject()
}
