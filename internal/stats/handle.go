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
	id := metricIDs.ID(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	return Latency{r: r, m: r.latLocked(id)}
}

// Observe records one latency observation v (picoseconds) at virtual time
// t into the run-wide histogram, the window's histogram (when the series
// is enabled), and every SLO watching the metric, under the registry's
// one lock. With the series and SLOs off it is exactly a Record on the
// run-wide histogram, so default runs keep their schema.
func (l Latency) Observe(t, v int64) {
	r, m := l.r, l.m
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histLocked(m).d.record(v)
	widx := int64(0)
	if s := r.series; s != nil {
		widx = r.advanceLocked(t)
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeLocked(p.id).d.sample(t, v)
	if s := r.series; s != nil {
		widx := r.advanceLocked(t)
		s.cell(widx).gauge(p.id).sample(t, v)
	}
}

// TimedCounter is a resolved handle on one counter of a registry,
// written with the virtual time of each increment.
type TimedCounter struct {
	r  *Registry
	id metricID
}

// TimedCounter resolves counter name to a handle.
func (r *Registry) TimedCounter(name string) TimedCounter {
	return TimedCounter{r: r, id: metricIDs.ID(name)}
}

// Add increments the counter by v at virtual time t. Identical to a raw
// Set write when the series is off; with it on, the increment is
// attributed exactly to t's window (unlike raw Set writes, which are
// charged to windows by boundary deltas), and the boundary snapshot is
// advanced past it so the delta mechanism never double-counts it.
func (c TimedCounter) Add(t, v int64) {
	r := c.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.series; s != nil {
		widx := r.advanceLocked(t)
		s.cell(widx).addCounter(c.id, v)
		s.lastSnap = grow(s.lastSnap, c.id, len(r.counters.vals))
		s.lastSnap[c.id] += v
	}
	r.counters.slot(c.id).add(v)
}
