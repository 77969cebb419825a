package stats

import (
	"io"
	"sort"
	"sync"

	"morpheus/internal/jsonw"
)

// Registry joins the three metric kinds — monotonic counters, latency
// histograms, and sampled gauges — under one namespace so experiments
// and the bench binary can emit them together. Names follow the
// `unit.metric` convention ("nvme.MREAD.latency_ps", "flash.channel_util").
//
// A registry has one writer: the goroutine that runs its system. Writes,
// handle resolution, Reset, configuration and export take no lock, and
// the race detector, not a mutex, holds callers to that. Merge is the one
// operation several goroutines may call at once on the same destination;
// it locks the destination (mu) and reads a source whose writer has
// finished.
//
// Metrics live in dense slices indexed by interned metric ID. Hot paths
// resolve a name once to a handle (Latency, Sampler, TimedCounter) and
// observe through it, with no name hashing. Every write carries its
// virtual time. A caller that writes rarely may resolve per call
// (Latency(name).Observe). Resolving a handle adds nothing to any
// artifact; only an observation does.
type Registry struct {
	mu       sync.Mutex // held by Merge into this registry
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
func NewRegistry() *Registry { return &Registry{counters: NewSet()} }

// Counters returns the registry's counter set, the read side of its
// TimedCounter writes.
func (r *Registry) Counters() *Set { return r.counters }

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.lat(metricIDs.ID(name)).hist()
}

// lat returns id's latency slot, creating it.
func (r *Registry) lat(id metricID) *latMetric {
	r.lats = grow(r.lats, id, 0)
	m := r.lats[id]
	if m == nil {
		m = &latMetric{id: id}
		r.lats[id] = m
	}
	return m
}

// hist returns m's run-wide histogram, creating it.
func (m *latMetric) hist() *Histogram {
	if m.h == nil {
		m.h = &Histogram{}
	}
	return m.h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.gauge(metricIDs.ID(name)) }

// gauge returns gauge id, creating it.
func (r *Registry) gauge(id metricID) *Gauge {
	r.gauges = grow(r.gauges, id, 0)
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Merge folds every metric of o into r: counters add, histograms merge
// bucket-wise, gauges merge as summaries, series windows and SLO counts
// add window by window. Used by experiments that run several systems
// (tenants, modes, parallel sweep points) and want one aggregate
// emission. Several goroutines may merge into r at once: the fold holds
// r's lock. o must be quiescent, its writer finished with it; o itself is
// only read.
//
// The fold walks o's dense slices and adds index by index. Every metric
// of r receives at most one add from o, so the walk order cannot change a
// float fold; the result depends only on the order callers merge sources
// in.
func (r *Registry) Merge(o *Registry) {
	if o == nil || o == r {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	if so := o.series; so != nil {
		if r.series == nil {
			r.series = newSeries(so.window)
		}
		for idx, src := range so.cells {
			r.series.mergeCell(idx, src)
		}
	}
	r.counters.Merge(o.counters)
	for key, src := range o.slos {
		r.AddSLO(src.cfg)
		r.slos[key].merge(src)
	}
	for _, m := range o.lats {
		if m != nil && m.h != nil {
			r.lat(m.id).hist().d.merge(&m.h.d)
		}
	}
	for id, g := range o.gauges {
		if g != nil {
			r.gauge(metricID(id)).d.merge(&g.d)
		}
	}
}

// Reset clears every metric. Series and SLO configuration survive (a
// system's registry is reset between staging and the measured run) but
// their collected windows and counts are cleared. Resolved handles stay
// valid.
func (r *Registry) Reset() {
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
		writeHist(jw, &d.histSummary, d.bucket, d.appendBuckets(nil))
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
		r.writeSLOSummary(jw)
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

// summary holds the keys of the histogram, gauge and SLO window summary
// objects.
var summary = struct {
	count, sum, min, max, p50, p95, p99    jsonw.Field
	samples, last, mean                    jsonw.Field
	total, violations, burnRate, violating jsonw.Field
}{
	count: jsonw.NewField("count"), sum: jsonw.NewField("sum"),
	min: jsonw.NewField("min"), max: jsonw.NewField("max"),
	p50: jsonw.NewField("p50"), p95: jsonw.NewField("p95"), p99: jsonw.NewField("p99"),
	samples: jsonw.NewField("samples"), last: jsonw.NewField("last"), mean: jsonw.NewField("mean"),
	total: jsonw.NewField("total"), violations: jsonw.NewField("violations"),
	burnRate: jsonw.NewField("burn_rate"), violating: jsonw.NewField("violating"),
}

// summaryQuantiles are the quantiles a histogram summary reports: p50,
// p95 and p99.
var summaryQuantiles = []float64{0.5, 0.95, 0.99}

// writeHist writes a histogram's summary object, whose bucket i holds
// bucket(i) observations, and, when bs holds any, its non-empty buckets:
// the run-wide artifact lists them, the per-window rows do not.
func writeHist(jw *jsonw.Writer, h *histSummary, bucket func(i int) int64, bs []BucketCount) {
	var q [3]int64
	h.quantiles(summaryQuantiles, bucket, q[:])
	jw.BeginObject()
	jw.Field(summary.count)
	jw.Int(h.count)
	jw.Field(summary.sum)
	jw.Int(h.sum)
	jw.Field(summary.min)
	jw.Int(h.min)
	jw.Field(summary.max)
	jw.Int(h.max)
	jw.Field(summary.p50)
	jw.Int(q[0])
	jw.Field(summary.p95)
	jw.Int(q[1])
	jw.Field(summary.p99)
	jw.Int(q[2])
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
	jw.Field(summary.samples)
	jw.Int(g.samples)
	jw.Field(summary.last)
	jw.Float(g.last)
	jw.Field(summary.min)
	jw.Float(g.min)
	jw.Field(summary.max)
	jw.Float(g.max)
	jw.Field(summary.mean)
	jw.Float(g.mean())
	jw.EndObject()
}
