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

func gaugeRow(g *Gauge) gaugeJSON {
	return gaugeJSON{Samples: g.Samples(), Last: g.Last(), Min: g.Min(), Max: g.Max(), Mean: g.Mean()}
}

// oracleWriteJSON is the encoding/json rendering of Registry.WriteJSON.
func oracleWriteJSON(r *Registry, w io.Writer) error {
	r.mu.Lock()
	counters := map[string]int64{}
	for n, v := range r.counters.counters {
		counters[n] = v
	}
	hists := map[string]histJSON{}
	for n, h := range r.hists {
		hists[n] = histJSON{
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Buckets: h.Buckets(),
		}
	}
	gauges := map[string]gaugeJSON{}
	for n, g := range r.gauges {
		gauges[n] = gaugeRow(g)
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
			if len(cell.counters) > 0 {
				wj.Counters = cell.counters
			}
			if len(cell.hists) > 0 {
				wj.Histograms = map[string]seriesHistJSON{}
				for n, h := range cell.hists {
					wj.Histograms[n] = seriesHistJSON{
						Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
						P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
					}
				}
			}
			if len(cell.gauges) > 0 {
				wj.Gauges = map[string]gaugeJSON{}
				for n, g := range cell.gauges {
					wj.Gauges[n] = gaugeRow(g)
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
