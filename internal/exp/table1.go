package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/units"
)

// Table1Row is one row of Table I.
type Table1Row struct {
	App         string
	Suite       string
	Parallel    string
	PaperInput  units.Bytes
	ScaledInput units.Bytes
	Threads     int
	UsesGPU     bool
}

// Table1Result is the staged benchmark inventory.
type Table1Result struct {
	Rows  []Table1Row
	Scale float64
}

// RunTable1 regenerates Table I, also verifying that each generator
// produces (approximately) the requested scaled size.
func RunTable1(o Options) (*Table1Result, error) {
	rows, err := runApps(o, func(app *apps.App, po Options) (Table1Row, error) {
		target := units.Bytes(float64(app.PaperInputSize) * po.scale())
		shards := app.Gen(target, app.Threads, po.Seed)
		got := shards.TotalSize()
		if got == 0 {
			return Table1Row{}, fmt.Errorf("table1: %s generated an empty input", app.Name)
		}
		return Table1Row{
			App: app.Name, Suite: app.Suite, Parallel: app.Parallel,
			PaperInput: app.PaperInputSize, ScaledInput: got,
			Threads: app.Threads, UsesGPU: app.UsesGPU,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows, Scale: o.scale()}, nil
}

// Table renders Table I.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Table I — applications and input sizes (scale = %.4g)", r.Scale),
		Header: []string{"application", "suite", "parallel model", "paper input", "scaled input", "I/O threads"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.Suite, row.Parallel, row.PaperInput.String(), row.ScaledInput.String(),
			fmt.Sprintf("%d", row.Threads))
	}
	t.Note("wordcount stands in for the Table I row lost to OCR in the supplied paper text (see DESIGN.md)")
	return t
}
