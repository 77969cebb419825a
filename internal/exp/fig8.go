package exp

import (
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

// fig8Row is one application's Figure 8 bar.
func fig8Row(app string, base, morph *apps.Report) Fig8Row {
	return Fig8Row{
		App:           app,
		BaselineDeser: base.Deser,
		MorpheusDeser: morph.Deser,
		Speedup:       float64(base.Deser) / float64(morph.Deser),
		CyclesPerByte: morph.CyclesPerByte,
	}
}

func newFig8Result(rows []Fig8Row) *Fig8Result {
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
	return res
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
