package stats

import (
	"encoding/json"
	"io"
	"math"
	"sort"

	"morpheus/internal/units"
)

// refRegistry is a map-keyed model of a Registry, the oracle the handle
// fuzzer holds registries to. It keys every metric by name and every
// series window by index in plain maps, keeps each latency metric's raw
// observations instead of buckets, and charges raw counter writes to
// windows by diffing a name-keyed boundary snapshot, so it shares none of
// the registry's dense storage, window lists or counter-slice diff. Only
// gauges reuse the standalone Gauge, whose float fold is the artifact's.
type refRegistry struct {
	counters map[string]int64
	hists    map[string][]int64
	gauges   map[string]*Gauge
	series   *refSeries
	slos     map[string]*refSLO
}

type refSeries struct {
	window   int64
	cells    map[int64]*refCell
	lastSnap map[string]int64 // counter values at the last closed boundary
	cur      int64            // open window index
}

type refCell struct {
	counters map[string]int64
	hists    map[string][]int64
	gauges   map[string]*Gauge
}

type refSLO struct {
	cfg        SLOConfig
	total, bad int64
	windows    map[int64]*sloWindow
}

func newRefRegistry() *refRegistry {
	return &refRegistry{counters: map[string]int64{}, hists: map[string][]int64{}, gauges: map[string]*Gauge{}}
}

func newRefSeries(window int64) *refSeries {
	return &refSeries{window: window, cells: map[int64]*refCell{}, lastSnap: map[string]int64{}}
}

func (s *refSeries) cell(idx int64) *refCell {
	c := s.cells[idx]
	if c == nil {
		c = &refCell{counters: map[string]int64{}, hists: map[string][]int64{}, gauges: map[string]*Gauge{}}
		s.cells[idx] = c
	}
	return c
}

// gaugeIn returns m's gauge name, creating it.
func gaugeIn(m map[string]*Gauge, name string) *Gauge {
	g := m[name]
	if g == nil {
		g = &Gauge{}
		m[name] = g
	}
	return g
}

func (r *refRegistry) enableSeries(window int64) {
	if window > 0 && (r.series == nil || r.series.window != window) {
		r.series = newRefSeries(window)
	}
}

// advance rolls the open window forward to t's, charging raw counter
// writes since the last boundary to the window it closes, and returns
// t's window.
func (r *refRegistry) advance(t int64) int64 {
	s := r.series
	idx := max(t, 0) / s.window
	if idx > s.cur {
		r.closeWindow()
		s.cur = idx
	}
	return idx
}

func (r *refRegistry) closeWindow() {
	s := r.series
	for name, v := range r.counters {
		if d := v - s.lastSnap[name]; d != 0 {
			s.cell(s.cur).counters[name] += d
			s.lastSnap[name] = v
		}
	}
}

func (r *refRegistry) add(name string, v int64) { r.counters[name] += v }

func (r *refRegistry) addBytes(name string, v units.Bytes) { r.add(name, int64(v)) }

func (r *refRegistry) addAt(name string, t, v int64) {
	if s := r.series; s != nil {
		s.cell(r.advance(t)).counters[name] += v
		s.lastSnap[name] += v
	}
	r.counters[name] += v
}

func (r *refRegistry) observe(name string, t, v int64) {
	r.hists[name] = append(r.hists[name], v)
	widx := int64(0)
	if s := r.series; s != nil {
		widx = r.advance(t)
		c := s.cell(widx)
		c.hists[name] = append(c.hists[name], v)
	}
	for _, o := range r.slos {
		if o.cfg.Metric == name {
			w := o.window(widx)
			w.total++
			o.total++
			if v > o.cfg.TargetPS {
				w.bad++
				o.bad++
			}
		}
	}
}

func (r *refRegistry) sample(name string, t int64, v float64) {
	gaugeIn(r.gauges, name).Sample(t, v)
	if s := r.series; s != nil {
		gaugeIn(s.cell(r.advance(t)).gauges, name).Sample(t, v)
	}
}

func (o *refSLO) window(idx int64) *sloWindow {
	w := o.windows[idx]
	if w == nil {
		w = &sloWindow{}
		o.windows[idx] = w
	}
	return w
}

func (r *refRegistry) addSLO(cfg SLOConfig) { r.slo(cfg) }

// slo returns the objective cfg keys, registering it or replacing its
// configuration.
func (r *refRegistry) slo(cfg SLOConfig) *refSLO {
	if r.slos == nil {
		r.slos = map[string]*refSLO{}
	}
	o := r.slos[cfg.Key()]
	if o == nil {
		o = &refSLO{windows: map[int64]*sloWindow{}}
		r.slos[cfg.Key()] = o
	}
	o.cfg = cfg
	return o
}

func (r *refRegistry) reset() {
	r.counters, r.hists, r.gauges = map[string]int64{}, map[string][]int64{}, map[string]*Gauge{}
	if r.series != nil {
		r.series = newRefSeries(r.series.window)
	}
	for _, o := range r.slos {
		o.total, o.bad, o.windows = 0, 0, map[int64]*sloWindow{}
	}
}

// merge folds o, another refRegistry, into r: o's windows (after closing
// its open counter window) into r's by index, its counters into r's and,
// so r never charges them to a window again, into r's boundary snapshot.
func (r *refRegistry) merge(src scriptTarget) {
	o := src.(*refRegistry)
	if so := o.series; so != nil {
		o.closeWindow()
		if r.series == nil {
			r.series = newRefSeries(so.window)
		}
		for idx, src := range so.cells {
			dst := r.series.cell(idx)
			for name, v := range src.counters {
				dst.counters[name] += v
			}
			for name, vs := range src.hists {
				dst.hists[name] = append(dst.hists[name], vs...)
			}
			for name, g := range src.gauges {
				gaugeIn(dst.gauges, name).Merge(g)
			}
		}
	}
	for name, v := range o.counters {
		r.counters[name] += v
		if r.series != nil {
			r.series.lastSnap[name] += v
		}
	}
	for _, src := range o.slos {
		dst := r.slo(src.cfg)
		dst.total += src.total
		dst.bad += src.bad
		for idx, w := range src.windows {
			dw := dst.window(idx)
			dw.total += w.total
			dw.bad += w.bad
		}
	}
	for name, vs := range o.hists {
		r.hists[name] = append(r.hists[name], vs...)
	}
	for name, g := range o.gauges {
		gaugeIn(r.gauges, name).Merge(g)
	}
}

// refHist summarizes raw observations: the q-quantile is the upper bound
// of the bucket holding the rank-⌈q·n⌉ smallest value, clamped to
// [min, max].
func refHist(vals []int64) (h histJSON) {
	vs := append([]int64(nil), vals...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	n := len(vs)
	h.Count, h.Min, h.Max = int64(n), vs[0], vs[n-1]
	counts := map[int]int64{}
	for _, v := range vs {
		h.Sum += v
		counts[bucketOf(v)]++
	}
	q := func(q float64) int64 {
		rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
		return min(max(bucketUpper(bucketOf(vs[rank-1])), h.Min), h.Max)
	}
	h.P50, h.P95, h.P99 = q(0.5), q(0.95), q(0.99)
	for i := 0; i < histBuckets; i++ {
		if c := counts[i]; c > 0 {
			h.Buckets = append(h.Buckets, BucketCount{Upper: bucketUpper(i), Count: c})
		}
	}
	return h
}

func refGauge(g *Gauge) gaugeJSON {
	return gaugeJSON{Samples: g.Samples(), Last: g.Last(), Min: g.Min(), Max: g.Max(), Mean: g.Mean()}
}

func refBurn(o *refSLO, w *sloWindow) (burn float64, violating bool) {
	if w.total == 0 {
		return 0, false
	}
	frac := float64(w.bad) / float64(w.total)
	return frac / o.cfg.Budget, frac > o.cfg.Budget
}

func (r *refRegistry) sloSummary() map[string]sloJSON {
	if len(r.slos) == 0 {
		return nil
	}
	window := int64(0)
	if r.series != nil {
		window = r.series.window
	}
	out := map[string]sloJSON{}
	for key, o := range r.slos {
		var violating int64
		for _, w := range o.windows {
			if _, v := refBurn(o, w); v {
				violating++
			}
		}
		burn, _ := refBurn(o, &sloWindow{total: o.total, bad: o.bad})
		out[key] = sloJSON{
			TargetPS: o.cfg.TargetPS, Budget: o.cfg.Budget, Total: o.total, Violations: o.bad,
			BurnRate: burn, WindowsViolating: violating, TimeInViolationPS: violating * window,
		}
	}
	return out
}

func (r *refRegistry) write(series bool, w io.Writer) error {
	if series {
		return r.writeSeriesJSON(w)
	}
	return r.writeJSON(w)
}

// writeJSON renders the model's WriteJSON artifact with encoding/json.
func (r *refRegistry) writeJSON(w io.Writer) error {
	hists := map[string]histJSON{}
	for name, vs := range r.hists {
		hists[name] = refHist(vs)
	}
	gauges := map[string]gaugeJSON{}
	for name, g := range r.gauges {
		gauges[name] = refGauge(g)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Counters   map[string]int64     `json:"counters"`
		Histograms map[string]histJSON  `json:"histograms"`
		Gauges     map[string]gaugeJSON `json:"gauges"`
		SLOs       map[string]sloJSON   `json:"slos,omitempty"`
	}{r.counters, hists, gauges, r.sloSummary()})
}

// writeSeriesJSON renders the model's WriteSeriesJSON artifact with
// encoding/json: every window a cell or an SLO touched, in order.
func (r *refRegistry) writeSeriesJSON(w io.Writer) error {
	s := r.series
	if s == nil {
		return ErrNoSeries
	}
	r.closeWindow()
	seen := map[int64]bool{}
	for idx := range s.cells {
		seen[idx] = true
	}
	for _, o := range r.slos {
		for idx := range o.windows {
			seen[idx] = true
		}
	}
	var idxs []int64
	for idx := range seen {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out := seriesFileJSON{WindowPS: s.window, Windows: []seriesWindowJSON{}, SLOs: r.sloSummary()}
	for _, idx := range idxs {
		wj := seriesWindowJSON{StartPS: idx * s.window, EndPS: (idx + 1) * s.window}
		if c := s.cells[idx]; c != nil {
			if len(c.counters) > 0 {
				wj.Counters = c.counters
			}
			for name, vs := range c.hists {
				if wj.Histograms == nil {
					wj.Histograms = map[string]seriesHistJSON{}
				}
				h := refHist(vs)
				wj.Histograms[name] = seriesHistJSON{
					Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, P50: h.P50, P95: h.P95, P99: h.P99,
				}
			}
			for name, g := range c.gauges {
				if wj.Gauges == nil {
					wj.Gauges = map[string]gaugeJSON{}
				}
				wj.Gauges[name] = refGauge(g)
			}
		}
		for key, o := range r.slos {
			if sw := o.windows[idx]; sw != nil {
				if wj.SLOs == nil {
					wj.SLOs = map[string]sloWindowJSON{}
				}
				burn, violating := refBurn(o, sw)
				wj.SLOs[key] = sloWindowJSON{Total: sw.total, Violations: sw.bad, BurnRate: burn, Violating: violating}
			}
		}
		out.Windows = append(out.Windows, wj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
