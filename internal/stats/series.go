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
// crosses into a later window, the registry diffs its counter slice
// against the snapshot taken at the previous boundary and charges the
// delta to the window being closed. Attribution granularity therefore
// follows the timed-record rate (for the driver, command completions),
// and is deterministic because each simulated system is single-threaded
// on a deterministic clock.
//
// All access is guarded by the owning Registry's mutex; seriesData has no
// lock of its own.
type seriesData struct {
	window int64 // window width in picoseconds (> 0)
	cells  map[int64]*seriesCell
	// lastSnap holds the counter values at the last closed boundary (plus
	// every merged-in source's totals, so a receiver's own deltas never
	// re-attribute counters a Merge already placed into windows), by
	// metricID.
	lastSnap []int64
	cur      int64 // open window index (monotone)
	// curCell is cells[cur] once it exists: in-order observations reach
	// the open window without a map lookup.
	curCell *seriesCell
}

// seriesCell is one window's worth of metrics: for each kind, only the
// metrics the window saw, in first-touch order.
type seriesCell struct {
	counters cellList[int64]
	hists    cellList[*winHist]
	gauges   cellList[gaugeData]
}

// cellList is one metric kind's entries in a window.
type cellList[T any] []cellEntry[T]

type cellEntry[T any] struct {
	id metricID
	v  T
}

// entry returns the index of metric id's entry in l, appending a zero
// entry when l has none. A window lists only the metrics it saw, a few
// dozen at most, so a scan finds the entry.
func entry[T any](l *cellList[T], id metricID) int {
	for i, e := range *l {
		if e.id == id {
			return i
		}
	}
	*l = append(*l, cellEntry[T]{id: id})
	return len(*l) - 1
}

// hist returns metric id's histogram in c, creating it.
func (c *seriesCell) hist(id metricID) *winHist {
	i := entry(&c.hists, id)
	if c.hists[i].v == nil {
		c.hists[i].v = &winHist{}
	}
	return c.hists[i].v
}

// gauge returns metric id's gauge in c, creating it.
func (c *seriesCell) gauge(id metricID) *gaugeData { return &c.gauges[entry(&c.gauges, id)].v }

// addCounter adds v to metric id's counter in c, creating it.
func (c *seriesCell) addCounter(id metricID, v int64) { c.counters[entry(&c.counters, id)].v += v }

// mergeCell adds every metric of o into window win, one add per metric.
func (s *seriesData) mergeCell(win int64, o *seriesCell) {
	c := s.cell(win)
	for _, e := range o.counters {
		c.addCounter(e.id, e.v)
	}
	for _, e := range o.hists {
		c.hist(e.id).merge(e.v)
	}
	for i := range o.gauges {
		c.gauge(o.gauges[i].id).merge(&o.gauges[i].v)
	}
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
	return &seriesData{window: windowPS, cells: map[int64]*seriesCell{}}
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
	if idx == s.cur && s.curCell != nil {
		return s.curCell
	}
	c := s.cells[idx]
	if c == nil {
		c = &seriesCell{}
		s.cells[idx] = c
	}
	if idx == s.cur {
		s.curCell = c
	}
	return c
}

// advanceLocked rolls the open counter window forward to the one holding
// t, charging the counter delta since the last boundary to the window
// being closed, and returns t's window index. Caller holds r.mu.
func (r *Registry) advanceLocked(t int64) int64 {
	s := r.series
	idx := s.windowIdx(t)
	if idx > s.cur {
		r.closeCounterWindowLocked()
		s.cur, s.curCell = idx, nil
	}
	return idx
}

// closeCounterWindowLocked charges counters accumulated since the last
// boundary to the currently open window: a diff of the counter slice
// against the boundary snapshot. Caller holds r.mu.
func (r *Registry) closeCounterWindowLocked() {
	s := r.series
	vals := r.counters.vals
	for id, c := range vals {
		var last int64
		if id < len(s.lastSnap) {
			last = s.lastSnap[id]
		}
		if !c.set || c.v == last {
			continue
		}
		s.cell(s.cur).addCounter(metricID(id), c.v-last)
		s.lastSnap = grow(s.lastSnap, metricID(id), len(vals))
		s.lastSnap[id] = c.v
	}
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

// markIDs sets marked[id] for every entry of l.
func markIDs[T any](marked []bool, l cellList[T]) []bool {
	for _, e := range l {
		marked = grow(marked, e.id, 0)
		marked[e.id] = true
	}
	return marked
}

// markedIDs returns the indices of marked, sorted by metric name.
func markedIDs(marked []bool) []metricID {
	var ids []metricID
	for id, ok := range marked {
		if ok {
			ids = append(ids, metricID(id))
		}
	}
	sortByName(ids)
	return ids
}

// seriesKeys holds one write's order per metric kind, the IDs any window
// holds sorted by name, and each metric's quoted name: names are sorted
// and escaped once per write, not once per window.
type seriesKeys struct {
	counters, hists, gauges []metricID
	quoted                  []string // by metricID
	pos                     []int32  // writeCellBlock's scratch, by metricID
}

func (s *seriesData) keys() *seriesKeys {
	var c, h, g []bool
	for _, cell := range s.cells {
		c = markIDs(c, cell.counters)
		h = markIDs(h, cell.hists)
		g = markIDs(g, cell.gauges)
	}
	names := metricIDs.Names()
	k := &seriesKeys{
		counters: markedIDs(c), hists: markedIDs(h), gauges: markedIDs(g),
		quoted: make([]string, len(names)), pos: make([]int32, len(names)),
	}
	for _, order := range [][]metricID{k.counters, k.hists, k.gauges} {
		for _, id := range order {
			k.quoted[id] = jsonw.Quote(names[id])
		}
	}
	return k
}

// writeCellBlock writes one window's entries of a kind as the object
// key → {name: value}, in order, and nothing for an empty list.
func writeCellBlock[T any](jw *jsonw.Writer, key string, l cellList[T], order []metricID, k *seriesKeys, write func(*T)) {
	if len(l) == 0 {
		return
	}
	pos := k.pos // all zero on entry and on return
	for i, e := range l {
		pos[e.id] = int32(i + 1)
	}
	jw.Key(key)
	jw.BeginObject()
	for _, id := range order {
		if i := pos[id]; i > 0 {
			jw.QuotedKey(k.quoted[id])
			write(&l[i-1].v)
			pos[id] = 0
		}
	}
	jw.EndObject()
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
	keys := s.keys()
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
			writeCellBlock(jw, "counters", cell.counters, keys.counters, keys, func(v *int64) { jw.Int(*v) })
			writeCellBlock(jw, "histograms", cell.hists, keys.hists, keys, func(h **winHist) { writeHist(jw, &(*h).histSummary, (*h).quantile, nil) })
			writeCellBlock(jw, "gauges", cell.gauges, keys.gauges, keys, func(g *gaugeData) { writeGauge(jw, g) })
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
