package exp

import (
	"fmt"

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

// RunFig2 regenerates Figure 2: normalized execution-time breakdowns of
// the conventional model ("Other CPU computation / Deserialization /
// GPU-CPU Data Copy / GPU Kernels").
func RunFig2(o Options) (*Fig2Result, error) {
	rows, err := runApps(o, func(app *apps.App, po Options) (Fig2Row, error) {
		rep, _, err := runApp(app, apps.ModeBaseline, po)
		if err != nil {
			return Fig2Row{}, fmt.Errorf("fig2 %s: %w", app.Name, err)
		}
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
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var fracs []float64
	for _, row := range rows {
		fracs = append(fracs, row.DeserFrac)
	}
	return &Fig2Result{Rows: rows, AvgDeserFrac: mean(fracs)}, nil
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
