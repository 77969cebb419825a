package exp

import (
	"fmt"

	"morpheus/internal/apps"
)

// Fig10Row is one pair of bars of Figure 10: context-switch activity
// during object deserialization.
type Fig10Row struct {
	App            string
	BaseCount      int64
	MorphCount     int64
	BaseFreqHz     float64 // switches per second of deserialization time
	MorphFreqHz    float64
	FreqReduction  float64
	CountReduction float64
}

// Fig10Result is the whole figure.
type Fig10Result struct {
	Rows              []Fig10Row
	AvgFreqReduction  float64
	AvgCountReduction float64
}

// fig10Row is one application's pair of Figure 10 bars: context-switch
// frequencies (and total counts) during object deserialization.
func fig10Row(app string, base, morph *apps.Report) Fig10Row {
	row := Fig10Row{
		App:         app,
		BaseCount:   base.DeserCtxSwitches,
		MorphCount:  morph.DeserCtxSwitches,
		BaseFreqHz:  float64(base.DeserCtxSwitches) / base.Deser.Seconds(),
		MorphFreqHz: float64(morph.DeserCtxSwitches) / morph.Deser.Seconds(),
	}
	if row.BaseFreqHz > 0 {
		row.FreqReduction = 1 - row.MorphFreqHz/row.BaseFreqHz
	}
	if row.BaseCount > 0 {
		row.CountReduction = 1 - float64(row.MorphCount)/float64(row.BaseCount)
	}
	return row
}

func newFig10Result(rows []Fig10Row) *Fig10Result {
	res := &Fig10Result{Rows: rows}
	var fRed, cRed []float64
	for _, row := range rows {
		fRed = append(fRed, row.FreqReduction)
		cRed = append(cRed, row.CountReduction)
	}
	res.AvgFreqReduction = mean(fRed)
	res.AvgCountReduction = mean(cRed)
	return res
}

// Table renders the figure.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:  "Figure 10 — context switches during object deserialization",
		Header: []string{"app", "baseline switches", "morpheus switches", "baseline freq", "morpheus freq", "freq reduction"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App,
			fmt.Sprintf("%d", row.BaseCount),
			fmt.Sprintf("%d", row.MorphCount),
			fmt.Sprintf("%.0f/s", row.BaseFreqHz),
			fmt.Sprintf("%.0f/s", row.MorphFreqHz),
			pct(row.FreqReduction))
	}
	t.Note("average frequency reduction = %s (paper: %s); average count reduction = %s (paper: %s)",
		pct(r.AvgFreqReduction), pct(PaperCtxFreqReduction),
		pct(r.AvgCountReduction), pct(PaperCtxCountReduction))
	return t
}
