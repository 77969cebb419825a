package exp

import (
	"morpheus/internal/apps"
	"morpheus/internal/units"
)

// E2ERow is one application's end-to-end comparison (§VII-B; the section
// is truncated in the supplied text, so the summary statistics come from
// the abstract: 1.32x with Morpheus-SSD, 1.39x adding NVMe-P2P).
type E2ERow struct {
	App         string
	Baseline    units.Duration
	Morpheus    units.Duration
	MorpheusP2P units.Duration // zero for non-GPU applications
	Speedup     float64
	SpeedupP2P  float64
}

// E2EResult is the whole experiment.
type E2EResult struct {
	Rows          []E2ERow
	AvgSpeedup    float64
	AvgSpeedupP2P float64 // over all apps (non-GPU apps use plain Morpheus)
}

// e2eRow is one application's end-to-end comparison across the three
// configurations; p2p is nil for an application without a GPU.
func e2eRow(app string, base, morph, p2p *apps.Report) E2ERow {
	row := E2ERow{
		App:      app,
		Baseline: base.Total,
		Morpheus: morph.Total,
		Speedup:  float64(base.Total) / float64(morph.Total),
	}
	row.SpeedupP2P = row.Speedup
	if p2p != nil {
		row.MorpheusP2P = p2p.Total
		row.SpeedupP2P = float64(base.Total) / float64(p2p.Total)
	}
	return row
}

func newE2EResult(rows []E2ERow) *E2EResult {
	var sp, spP2P []float64
	for _, row := range rows {
		sp = append(sp, row.Speedup)
		spP2P = append(spP2P, row.SpeedupP2P)
	}
	return &E2EResult{Rows: rows, AvgSpeedup: mean(sp), AvgSpeedupP2P: mean(spP2P)}
}

// Table renders the experiment.
func (r *E2EResult) Table() *Table {
	t := &Table{
		Title:  "§VII-B — end-to-end execution time (baseline / Morpheus / Morpheus+NVMe-P2P)",
		Header: []string{"app", "baseline", "morpheus", "morpheus+p2p", "speedup", "speedup w/ p2p"},
	}
	for _, row := range r.Rows {
		p2pStr := "-"
		if row.MorpheusP2P > 0 {
			p2pStr = row.MorpheusP2P.String()
		}
		t.AddRow(row.App, row.Baseline.String(), row.Morpheus.String(), p2pStr,
			f2(row.Speedup)+"x", f2(row.SpeedupP2P)+"x")
	}
	t.Note("average speedup = %sx (paper abstract: %.2fx); with NVMe-P2P = %sx (paper abstract: %.2fx)",
		f2(r.AvgSpeedup), PaperEndToEndSpeedup, f2(r.AvgSpeedupP2P), PaperEndToEndP2PSpeedup)
	t.Note("Section VII-B is truncated in the supplied paper text; targets come from the abstract/introduction")
	return t
}

// SlowHostResult compares end-to-end speedups at the two DVFS points (the
// abstract's "the performance gain of using Morpheus-SSD is more
// significant in slower servers").
type SlowHostResult struct {
	Fast *E2EResult // 2.5 GHz
	Slow *E2EResult // 1.2 GHz
}

// RunSlowHost regenerates the slower-server sensitivity study.
func RunSlowHost(o Options) (*SlowHostResult, error) {
	fastOpts := o
	fastOpts.CPUFreq = 2.5 * units.GHz
	fast, err := RunApps(fastOpts)
	if err != nil {
		return nil, err
	}
	slowOpts := o
	slowOpts.CPUFreq = 1.2 * units.GHz
	slow, err := RunApps(slowOpts)
	if err != nil {
		return nil, err
	}
	return &SlowHostResult{Fast: fast.EndToEnd, Slow: slow.EndToEnd}, nil
}

// Table renders the comparison.
func (r *SlowHostResult) Table() *Table {
	t := &Table{
		Title:  "Slower server sensitivity — end-to-end Morpheus speedup by host frequency",
		Header: []string{"app", "speedup @2.5GHz", "speedup @1.2GHz"},
	}
	for i, row := range r.Fast.Rows {
		t.AddRow(row.App, f2(row.Speedup)+"x", f2(r.Slow.Rows[i].Speedup)+"x")
	}
	t.Note("average: %sx @2.5GHz vs %sx @1.2GHz (paper: gains grow on slower hosts)",
		f2(r.Fast.AvgSpeedup), f2(r.Slow.AvgSpeedup))
	return t
}
