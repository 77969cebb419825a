package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/units"
)

// Fig8Row is one bar of Figure 8: the object-deserialization speedup of
// Morpheus-SSD over the conventional model.
type Fig8Row struct {
	App           string
	BaselineDeser units.Duration
	MorpheusDeser units.Duration
	Speedup       float64
	CyclesPerByte float64
}

// Fig8Result is the whole figure.
type Fig8Result struct {
	Rows []Fig8Row
	Avg  float64
	Max  float64
	SpMV float64
}

// RunFig8 regenerates Figure 8. Applications are independent sweep
// points, so they fan out across the worker pool.
func RunFig8(o Options) (*Fig8Result, error) {
	rows, err := runApps(o, func(app *apps.App, po Options) (Fig8Row, error) {
		base, _, err := runApp(app, apps.ModeBaseline, po)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 %s baseline: %w", app.Name, err)
		}
		morph, _, err := runApp(app, apps.ModeMorpheus, po)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 %s morpheus: %w", app.Name, err)
		}
		if err := apps.VerifyObjects(base, morph); err != nil {
			return Fig8Row{}, fmt.Errorf("fig8 %s: object mismatch: %w", app.Name, err)
		}
		return Fig8Row{
			App:           app.Name,
			BaselineDeser: base.Deser,
			MorpheusDeser: morph.Deser,
			Speedup:       float64(base.Deser) / float64(morph.Deser),
			CyclesPerByte: morph.CyclesPerByte,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Rows: rows}
	var speedups []float64
	for _, row := range rows {
		speedups = append(speedups, row.Speedup)
		if row.Speedup > res.Max {
			res.Max = row.Speedup
		}
		if row.App == "spmv" {
			res.SpMV = row.Speedup
		}
	}
	res.Avg = mean(speedups)
	return res, nil
}

// Table renders the figure.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:  "Figure 8 — object deserialization speedup with Morpheus-SSD",
		Header: []string{"app", "baseline deser", "morpheus deser", "speedup", "SSD cycles/byte"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.BaselineDeser.String(), row.MorpheusDeser.String(),
			f2(row.Speedup)+"x", f2(row.CyclesPerByte))
	}
	t.Note("average speedup = %sx (paper: %.2fx), max = %sx (paper: up to %.1fx)",
		f2(r.Avg), PaperDeserSpeedupAvg, f2(r.Max), PaperDeserSpeedupMax)
	t.Note("spmv = %sx (paper: ~%.1fx — software floating point on the embedded cores)",
		f2(r.SpMV), PaperDeserSpeedupSpMV)
	return t
}
