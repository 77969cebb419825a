package exp

import (
	"morpheus/internal/apps"
	"morpheus/internal/units"
)

// Fig2Row is one bar of Figure 2: the baseline execution-time breakdown.
type Fig2Row struct {
	App       string
	Deser     units.Duration
	OtherCPU  units.Duration
	GPUCopy   units.Duration
	GPUKernel units.Duration
	Total     units.Duration
	DeserFrac float64
}

// Fig2Result is the whole figure.
type Fig2Result struct {
	Rows         []Fig2Row
	AvgDeserFrac float64
}

// fig2Row is one application's Figure 2 bar, from its conventional run:
// normalized execution-time breakdowns ("Other CPU computation /
// Deserialization / GPU-CPU Data Copy / GPU Kernels").
func fig2Row(app *apps.App, rep *apps.Report) Fig2Row {
	// For CPU (MPI) applications the computation kernel is CPU work;
	// Figure 2's legend folds it into "Other CPU computation".
	other := rep.OtherCPU
	gpuKernel := rep.GPUKernel
	if !app.UsesGPU {
		other += rep.GPUKernel
		gpuKernel = 0
	}
	return Fig2Row{
		App:       app.Name,
		Deser:     rep.Deser,
		OtherCPU:  other,
		GPUCopy:   rep.GPUCopy,
		GPUKernel: gpuKernel,
		Total:     rep.Total,
		DeserFrac: rep.DeserFraction(),
	}
}

func newFig2Result(rows []Fig2Row) *Fig2Result {
	var fracs []float64
	for _, row := range rows {
		fracs = append(fracs, row.DeserFrac)
	}
	return &Fig2Result{Rows: rows, AvgDeserFrac: mean(fracs)}
}

// Table renders the figure as normalized stacked fractions.
func (r *Fig2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2 — baseline execution time breakdown (normalized)",
		Header: []string{"app", "deserialization", "other CPU", "GPU copy", "GPU kernel", "total"},
	}
	for _, row := range r.Rows {
		tot := float64(row.Total)
		t.AddRow(row.App,
			pct(float64(row.Deser)/tot),
			pct(float64(row.OtherCPU)/tot),
			pct(float64(row.GPUCopy)/tot),
			pct(float64(row.GPUKernel)/tot),
			row.Total.String())
	}
	t.Note("average deserialization share = %s (paper: %s)", pct(r.AvgDeserFrac), pct(PaperDeserFraction))
	return t
}
