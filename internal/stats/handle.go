package stats

// Latency is a resolved handle on one latency metric of a registry. Its
// metric carries the objectives watching it, so Observe dispatches to
// them without a lookup. Copy it freely; it stays valid across Reset.
type Latency struct {
	r *Registry
	m *latMetric
}

// Latency resolves latency metric name to a handle.
func (r *Registry) Latency(name string) Latency {
	return Latency{r: r, m: r.lat(metricIDs.ID(name))}
}

// Observe records one latency observation v (picoseconds) at virtual time
// t into the run-wide histogram, the window's histogram (when the series
// is enabled), and every SLO watching the metric. With the series and
// SLOs off it touches only the run-wide histogram, so default runs keep
// their schema.
func (l Latency) Observe(t, v int64) {
	m := l.m
	m.hist().d.record(v)
	widx := int64(0)
	if s := l.r.series; s != nil {
		widx = s.windowIdx(t)
		s.cell(widx).hist(m.id).record(v)
	}
	for _, o := range m.slos {
		o.observe(widx, v)
	}
}

// Sampler is a resolved handle on one gauge of a registry.
type Sampler struct {
	r  *Registry
	id metricID
}

// Sampler resolves gauge name to a handle.
func (r *Registry) Sampler(name string) Sampler { return Sampler{r: r, id: metricIDs.ID(name)} }

// Sample records one gauge sample into the run-wide gauge and, when the
// series is enabled, the window's gauge summary.
func (p Sampler) Sample(t int64, v float64) {
	r := p.r
	r.gauge(p.id).d.sample(t, v)
	if s := r.series; s != nil {
		s.cell(s.windowIdx(t)).gauge(p.id).sample(t, v)
	}
}

// TimedCounter is a resolved handle on one counter of a registry,
// written with the virtual time of each increment. It is the only way to
// write a registry's counters; Counters is their read side.
type TimedCounter struct {
	r  *Registry
	id metricID
}

// TimedCounter resolves counter name to a handle.
func (r *Registry) TimedCounter(name string) TimedCounter {
	return TimedCounter{r: r, id: metricIDs.ID(name)}
}

// Add increments the counter by v at virtual time t. With the series on,
// the increment is also charged to t's window, whatever order the writes
// come in.
func (c TimedCounter) Add(t, v int64) {
	r := c.r
	if s := r.series; s != nil {
		s.cell(s.windowIdx(t)).addCounter(c.id, v)
	}
	r.counters.slot(c.id).add(v)
}
