package stats

import (
	"fmt"
	"io"
	"sort"

	"morpheus/internal/jsonw"
)

// seriesData is the windowed time-series collector a Registry grows when
// EnableSeries is called: every latency observation, gauge sample, and
// counter delta is additionally attributed to a fixed-width window of the
// virtual clock (window k covers [k*W, (k+1)*W) picoseconds). Windows are
// purely index-keyed, so merging registries from several systems — each
// with its own virtual clock starting at zero — folds window k into
// window k, which is exactly what the -parallel in-order fold and the
// multi-tenant aggregation need for byte-identical emission.
//
// Counters have no per-write timestamps (the models write a bare *Set),
// so windowed counter rows are boundary deltas: whenever a timed record
// crosses into a later window, the registry snapshots its counter set and
// charges the delta since the previous boundary to the window being
// closed. Attribution granularity therefore follows the timed-record rate
// (for the driver, command completions), and is deterministic because
// each simulated system is single-threaded on a deterministic clock.
//
// All access is guarded by the owning Registry's mutex; seriesData has no
// lock of its own.
type seriesData struct {
	window int64 // window width in picoseconds (> 0)
	cells  map[int64]*seriesCell
	// lastSnap holds the counter values at the last closed boundary (plus
	// every merged-in source's totals, so a receiver's own deltas never
	// re-attribute counters a Merge already placed into windows).
	lastSnap map[string]int64
	cur      int64 // open window index (monotone)
}

// seriesCell is one window's worth of metrics.
type seriesCell struct {
	counters map[string]int64
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
}

func newSeriesCell() *seriesCell {
	return &seriesCell{counters: map[string]int64{}}
}

func (c *seriesCell) hist(name string) *Histogram {
	if c.hists == nil {
		c.hists = map[string]*Histogram{}
	}
	h := c.hists[name]
	if h == nil {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

func (c *seriesCell) gauge(name string) *Gauge {
	if c.gauges == nil {
		c.gauges = map[string]*Gauge{}
	}
	g := c.gauges[name]
	if g == nil {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// EnableSeries turns on windowed collection with the given window width
// in picoseconds. A non-positive width is a no-op. Enabling is idempotent
// for the same width; re-enabling with a different width restarts the
// collector. Reset clears collected windows but preserves the width.
func (r *Registry) EnableSeries(windowPS int64) {
	if windowPS <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.series != nil && r.series.window == windowPS {
		return
	}
	r.series = newSeries(windowPS)
}

func newSeries(windowPS int64) *seriesData {
	return &seriesData{
		window:   windowPS,
		cells:    map[int64]*seriesCell{},
		lastSnap: map[string]int64{},
	}
}

// SeriesWindow reports the configured window width (0 = series off).
func (r *Registry) SeriesWindow() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesWindowLocked()
}

// seriesWindowLocked is SeriesWindow for a caller holding r.mu.
func (r *Registry) seriesWindowLocked() int64 {
	if r.series == nil {
		return 0
	}
	return r.series.window
}

// windowIdx maps a virtual time to its window index.
func (s *seriesData) windowIdx(t int64) int64 {
	if t < 0 {
		return 0
	}
	return t / s.window
}

// cell returns window idx's cell, creating it on first use.
func (s *seriesData) cell(idx int64) *seriesCell {
	c := s.cells[idx]
	if c == nil {
		c = newSeriesCell()
		s.cells[idx] = c
	}
	return c
}

// advanceLocked rolls the open counter window forward to the one holding
// t, charging the counter delta since the last boundary to the window
// being closed. Caller holds r.mu.
func (r *Registry) advanceLocked(t int64) {
	s := r.series
	idx := s.windowIdx(t)
	if idx <= s.cur {
		return
	}
	r.closeCounterWindowLocked()
	s.cur = idx
}

// closeCounterWindowLocked charges counters accumulated since the last
// boundary to the currently open window. Caller holds r.mu.
func (r *Registry) closeCounterWindowLocked() {
	s := r.series
	var dirty []string
	for n, v := range r.counters.counters {
		if v != s.lastSnap[n] {
			dirty = append(dirty, n)
		}
	}
	if len(dirty) == 0 {
		return
	}
	cell := s.cell(s.cur)
	for _, n := range dirty {
		v := r.counters.counters[n]
		cell.counters[n] += v - s.lastSnap[n]
		s.lastSnap[n] = v
	}
}

// ObserveLatency records one latency observation v (picoseconds) for
// metric name at virtual time t into the cumulative histogram, the
// current window's histogram (when the series is enabled), and every SLO
// watching the metric. With the series and SLOs off it is exactly
// Histogram(name).Record(v), so default runs keep their schema.
func (r *Registry) ObserveLatency(name string, t int64, v int64) {
	r.Histogram(name).Record(v)
	r.mu.Lock()
	defer r.mu.Unlock()
	widx := int64(0)
	if r.series != nil {
		r.advanceLocked(t)
		widx = r.series.windowIdx(t)
		r.series.cell(widx).hist(name).Record(v)
	}
	for _, s := range r.sloByMetric[name] {
		s.observe(widx, v)
	}
}

// SampleAt records one gauge sample into the cumulative gauge and, when
// the series is enabled, the current window's gauge summary.
func (r *Registry) SampleAt(name string, t int64, v float64) {
	r.Gauge(name).Sample(t, v)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.series != nil {
		r.advanceLocked(t)
		r.series.cell(r.series.windowIdx(t)).gauge(name).Sample(t, v)
	}
}

// AddAt increments counter name by v at virtual time t. Identical to
// Counters().Add when the series is off; with it on, the increment is
// attributed exactly to t's window (unlike raw Set writes, which are
// charged to windows by boundary deltas), and the boundary snapshot is
// advanced past it so the delta mechanism never double-counts it.
func (r *Registry) AddAt(name string, t int64, v int64) {
	r.mu.Lock()
	if r.series != nil {
		r.advanceLocked(t)
		s := r.series
		s.cell(s.windowIdx(t)).counters[name] += v
		s.lastSnap[name] += v
	}
	r.mu.Unlock()
	r.counters.Add(name, v)
}

// ErrNoSeries is returned by WriteSeriesJSON when windowed collection was
// never enabled.
var ErrNoSeries = fmt.Errorf("stats: windowed series collection is not enabled")

// seriesWindowsLocked returns the sorted union of window indices holding
// metric cells or SLO windows. Caller holds r.mu.
func (r *Registry) seriesWindowsLocked() []int64 {
	set := map[int64]bool{}
	for idx := range r.series.cells {
		set[idx] = true
	}
	for _, s := range r.slos {
		for idx := range s.windows {
			set[idx] = true
		}
	}
	out := make([]int64, 0, len(set))
	for idx := range set {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteSeriesJSON emits the windowed artifact as JSON: the window width,
// every non-empty window in ascending order (per-window counters,
// histogram quantiles, gauge summaries, SLO burn), and the SLO summary.
// Metric names are sorted within each window, so output is deterministic.
func (r *Registry) WriteSeriesJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.series == nil {
		return ErrNoSeries
	}
	r.closeCounterWindowLocked()
	s := r.series
	sloKeys := sortedNames(nil, r.slos)
	var names []string // reused for every window's sorted names
	jw := jsonw.New(w)
	jw.BeginObject()
	jw.Key("window_ps")
	jw.Int(s.window)
	jw.Key("windows")
	jw.BeginArray()
	for _, idx := range r.seriesWindowsLocked() {
		jw.BeginObject()
		jw.Key("start_ps")
		jw.Int(idx * s.window)
		jw.Key("end_ps")
		jw.Int((idx + 1) * s.window)
		if cell := s.cells[idx]; cell != nil {
			if len(cell.counters) > 0 {
				jw.Key("counters")
				jw.BeginObject()
				names = sortedNames(names[:0], cell.counters)
				for _, n := range names {
					jw.Key(n)
					jw.Int(cell.counters[n])
				}
				jw.EndObject()
			}
			if len(cell.hists) > 0 {
				jw.Key("histograms")
				jw.BeginObject()
				names = sortedNames(names[:0], cell.hists)
				for _, n := range names {
					jw.Key(n)
					writeHist(jw, cell.hists[n], false)
				}
				jw.EndObject()
			}
			if len(cell.gauges) > 0 {
				jw.Key("gauges")
				jw.BeginObject()
				names = sortedNames(names[:0], cell.gauges)
				for _, n := range names {
					jw.Key(n)
					writeGauge(jw, cell.gauges[n])
				}
				jw.EndObject()
			}
		}
		opened := false
		for _, key := range sloKeys {
			st := r.slos[key]
			sw := st.windows[idx]
			if sw == nil {
				continue
			}
			if !opened {
				jw.Key("slos")
				jw.BeginObject()
				opened = true
			}
			jw.Key(key)
			jw.BeginObject()
			jw.Key("total")
			jw.Int(sw.total)
			jw.Key("violations")
			jw.Int(sw.bad)
			jw.Key("burn_rate")
			jw.Float(st.burnRate(sw))
			if st.violating(sw) {
				jw.Key("violating")
				jw.Bool(true)
			}
			jw.EndObject()
		}
		if opened {
			jw.EndObject()
		}
		jw.EndObject()
	}
	jw.EndArray()
	if len(r.slos) > 0 {
		jw.Key("slo_summary")
		r.writeSLOSummaryLocked(jw)
	}
	jw.EndObject()
	return jw.Close()
}
