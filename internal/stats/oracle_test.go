package stats

import (
	"encoding/json"
	"io"
)

// The encoding/json renderers below are the reference the streaming
// writers (WriteJSON, WriteSeriesJSON) are held to byte for byte: they
// build the artifact as maps and structs and let json.Encoder sort and
// indent it.

// histJSON is a histogram's JSON snapshot shape.
type histJSON struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	P50     int64         `json:"p50"`
	P95     int64         `json:"p95"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// gaugeJSON is a gauge's JSON snapshot shape.
type gaugeJSON struct {
	Samples int64   `json:"samples"`
	Last    float64 `json:"last"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// sloJSON is an objective's run-wide summary in artifacts.
type sloJSON struct {
	TargetPS          int64   `json:"target_ps"`
	Budget            float64 `json:"budget"`
	Total             int64   `json:"total"`
	Violations        int64   `json:"violations"`
	BurnRate          float64 `json:"burn_rate"`
	WindowsViolating  int64   `json:"windows_violating"`
	TimeInViolationPS int64   `json:"time_in_violation_ps"`
}

// sloWindowJSON is an objective's per-window row in the series artifact.
type sloWindowJSON struct {
	Total      int64   `json:"total"`
	Violations int64   `json:"violations"`
	BurnRate   float64 `json:"burn_rate"`
	Violating  bool    `json:"violating,omitempty"`
}

// seriesHistJSON is a per-window histogram row (quantiles, no buckets).
type seriesHistJSON struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// seriesWindowJSON is one emitted window.
type seriesWindowJSON struct {
	StartPS    int64                     `json:"start_ps"`
	EndPS      int64                     `json:"end_ps"`
	Counters   map[string]int64          `json:"counters,omitempty"`
	Histograms map[string]seriesHistJSON `json:"histograms,omitempty"`
	Gauges     map[string]gaugeJSON      `json:"gauges,omitempty"`
	SLOs       map[string]sloWindowJSON  `json:"slos,omitempty"`
}

// seriesFileJSON is the whole timeseries artifact.
type seriesFileJSON struct {
	WindowPS int64              `json:"window_ps"`
	Windows  []seriesWindowJSON `json:"windows"`
	SLOs     map[string]sloJSON `json:"slo_summary,omitempty"`
}

func gaugeRow(g *gaugeData) gaugeJSON {
	return gaugeJSON{Samples: g.samples, Last: g.last, Min: g.min, Max: g.max, Mean: g.mean()}
}

// counterMap is the name-keyed view of a dense counter slice: the
// written counters.
func counterMap(vals []counterVal) map[string]int64 {
	out := map[string]int64{}
	for id, c := range vals {
		if c.set {
			out[metricIDs.Names()[id]] = c.v
		}
	}
	return out
}

// listMap is the name-keyed view of one window's entries of a kind.
func listMap[T any](l cellList[T]) map[string]T {
	out := map[string]T{}
	for _, e := range l {
		out[metricIDs.Names()[e.id]] = e.v
	}
	return out
}

// presentMap is the name-keyed view of a dense slice of metrics: the
// non-nil entries.
func presentMap[T any](s []*T) map[string]*T {
	out := map[string]*T{}
	for id, p := range s {
		if p != nil {
			out[metricIDs.Names()[id]] = p
		}
	}
	return out
}

// oracleWriteJSON is the encoding/json rendering of Registry.WriteJSON.
func oracleWriteJSON(r *Registry, w io.Writer) error {
	r.mu.Lock()
	counters := counterMap(r.counters.vals)
	hists := map[string]histJSON{}
	for _, m := range r.lats {
		if m == nil || m.h == nil {
			continue
		}
		h := &m.h.d
		hists[metricIDs.Names()[m.id]] = histJSON{
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.quantile(0.5), P95: h.quantile(0.95), P99: h.quantile(0.99),
			Buckets: h.appendBuckets(nil),
		}
	}
	gauges := map[string]gaugeJSON{}
	for n, g := range presentMap(r.gauges) {
		gauges[n] = gaugeRow(&g.d)
	}
	slos := oracleSLOSummaryLocked(r)
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Counters   map[string]int64     `json:"counters"`
		Histograms map[string]histJSON  `json:"histograms"`
		Gauges     map[string]gaugeJSON `json:"gauges"`
		SLOs       map[string]sloJSON   `json:"slos,omitempty"`
	}{counters, hists, gauges, slos})
}

// oracleWriteSeriesJSON is the encoding/json rendering of
// Registry.WriteSeriesJSON.
func oracleWriteSeriesJSON(r *Registry, w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.series == nil {
		return ErrNoSeries
	}
	r.closeCounterWindowLocked()
	s := r.series
	out := seriesFileJSON{WindowPS: s.window, Windows: []seriesWindowJSON{}}
	for _, idx := range r.seriesWindowsLocked() {
		wj := seriesWindowJSON{StartPS: idx * s.window, EndPS: (idx + 1) * s.window}
		if cell := s.cells[idx]; cell != nil {
			if counters := listMap(cell.counters); len(counters) > 0 {
				wj.Counters = counters
			}
			if hists := listMap(cell.hists); len(hists) > 0 {
				wj.Histograms = map[string]seriesHistJSON{}
				for n, h := range hists {
					wj.Histograms[n] = seriesHistJSON{
						Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
						P50: h.quantile(0.5), P95: h.quantile(0.95), P99: h.quantile(0.99),
					}
				}
			}
			if gauges := listMap(cell.gauges); len(gauges) > 0 {
				wj.Gauges = map[string]gaugeJSON{}
				for n, g := range gauges {
					wj.Gauges[n] = gaugeRow(&g)
				}
			}
		}
		for key, st := range r.slos {
			sw := st.windows[idx]
			if sw == nil {
				continue
			}
			if wj.SLOs == nil {
				wj.SLOs = map[string]sloWindowJSON{}
			}
			wj.SLOs[key] = sloWindowJSON{
				Total: sw.total, Violations: sw.bad,
				BurnRate: st.burnRate(sw), Violating: st.violating(sw),
			}
		}
		out.Windows = append(out.Windows, wj)
	}
	out.SLOs = oracleSLOSummaryLocked(r)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// oracleSLOSummaryLocked renders the run-wide SLO block (nil when no SLOs
// are registered). Caller holds r.mu.
func oracleSLOSummaryLocked(r *Registry) map[string]sloJSON {
	if len(r.slos) == 0 {
		return nil
	}
	out := map[string]sloJSON{}
	for key, s := range r.slos {
		violating := s.windowsViolating()
		out[key] = sloJSON{
			TargetPS:          s.cfg.TargetPS,
			Budget:            s.cfg.Budget,
			Total:             s.total,
			Violations:        s.bad,
			BurnRate:          s.burnRate(&sloWindow{total: s.total, bad: s.bad}),
			WindowsViolating:  violating,
			TimeInViolationPS: violating * r.seriesWindowLocked(),
		}
	}
	return out
}
