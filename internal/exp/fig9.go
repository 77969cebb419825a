package exp

import (
	"morpheus/internal/apps"
	"morpheus/internal/power"
	"morpheus/internal/units"
)

// Fig9Row is one pair of bars of Figure 9: power and energy during object
// deserialization, normalized to the baseline.
type Fig9Row struct {
	App         string
	BasePower   units.Power
	MorphPower  units.Power
	BaseEnergy  units.Energy
	MorphEnergy units.Energy
	NormPower   float64
	NormEnergy  float64
}

// Fig9Result is the whole figure.
type Fig9Result struct {
	Rows            []Fig9Row
	AvgPowerSaving  float64
	MaxPowerSaving  float64
	AvgEnergySaving float64
}

// deserLoad converts a run report's deserialization-phase busy times into
// a power-model load.
func deserLoad(rep *apps.Report, freq units.Frequency) power.Load {
	return power.Load{
		CPUCoreSeconds: rep.DeserCPUBusy.Seconds(),
		CPUFreq:        freq,
		SSDCoreSeconds: rep.DeserSSDCoreBusy.Seconds(),
		SSDIOSeconds:   rep.DeserSSDIOBusy.Seconds(),
		DRAMSeconds:    rep.Deser.Seconds(),
		Wall:           rep.Deser,
	}
}

// fig9Row is one application's pair of Figure 9 bars: total-system power
// and energy during object deserialization.
func fig9Row(app string, base, morph appRun) Fig9Row {
	model := power.DefaultModel()
	bl := deserLoad(base.rep, base.freq)
	ml := deserLoad(morph.rep, morph.freq)
	row := Fig9Row{
		App:         app,
		BasePower:   model.AveragePower(bl),
		MorphPower:  model.AveragePower(ml),
		BaseEnergy:  model.Energy(bl),
		MorphEnergy: model.Energy(ml),
	}
	row.NormPower = float64(row.MorphPower) / float64(row.BasePower)
	row.NormEnergy = float64(row.MorphEnergy) / float64(row.BaseEnergy)
	return row
}

func newFig9Result(rows []Fig9Row) *Fig9Result {
	res := &Fig9Result{Rows: rows}
	var pSav, eSav []float64
	for _, row := range rows {
		pSav = append(pSav, 1-row.NormPower)
		eSav = append(eSav, 1-row.NormEnergy)
		if 1-row.NormPower > res.MaxPowerSaving {
			res.MaxPowerSaving = 1 - row.NormPower
		}
	}
	res.AvgPowerSaving = mean(pSav)
	res.AvgEnergySaving = mean(eSav)
	return res
}

// Table renders the figure.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:  "Figure 9 — normalized power and energy during object deserialization",
		Header: []string{"app", "baseline power", "morpheus power", "norm power", "baseline energy", "morpheus energy", "norm energy"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.BasePower.String(), row.MorphPower.String(), f2(row.NormPower),
			row.BaseEnergy.String(), row.MorphEnergy.String(), f2(row.NormEnergy))
	}
	t.Note("average power saving = %s (paper: %s), max = %s (paper: up to %s)",
		pct(r.AvgPowerSaving), pct(PaperPowerSavingAvg), pct(r.MaxPowerSaving), pct(PaperPowerSavingMax))
	t.Note("average energy saving = %s (paper: %s)", pct(r.AvgEnergySaving), pct(PaperEnergySaving))
	return t
}
