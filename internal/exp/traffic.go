package exp

import (
	"fmt"
	"strings"
	"time"

	"morpheus/internal/array"
	"morpheus/internal/units"
)

// ArrivalSpec selects the open-loop arrival process offered to the array
// serving experiment (§E17): a process shape plus an optional mean
// interarrival override. The zero Mean keeps the experiment default.
type ArrivalSpec struct {
	Mix  array.Mix
	Mean units.Duration
}

// ParseArrivalSpec parses -arrival values: a mix name with an optional
// mean interarrival time, e.g. "poisson", "bursty", "diurnal:20us".
func ParseArrivalSpec(s string) (ArrivalSpec, error) {
	name, mean := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		name, mean = s[:i], s[i+1:]
	}
	mix, err := array.ParseMix(name)
	if err != nil {
		return ArrivalSpec{}, err
	}
	spec := ArrivalSpec{Mix: mix}
	if mean != "" {
		d, err := time.ParseDuration(mean)
		if err != nil || d <= 0 {
			return ArrivalSpec{}, fmt.Errorf("exp: bad arrival mean %q (want a positive Go duration)", mean)
		}
		spec.Mean = units.Duration(int64(d) * 1000)
	}
	return spec, nil
}

// TrafficRow is one application's interconnect traffic under both models
// (the §VII-A text numbers: PCIe −22%, CPU-memory bus −58%).
type TrafficRow struct {
	App             string
	BasePCIe        units.Bytes
	MorphPCIe       units.Bytes
	BaseMemBus      units.Bytes
	MorphMemBus     units.Bytes
	PCIeReduction   float64
	MemBusReduction float64
}

// TrafficResult is the whole experiment.
type TrafficResult struct {
	Rows               []TrafficRow
	AvgPCIeReduction   float64
	AvgMemBusReduction float64
}

// trafficRow is one application's §VII-A traffic over the full runs
// (deserialization + kernel).
func trafficRow(app string, base, morph appRun) TrafficRow {
	row := TrafficRow{
		App:         app,
		BasePCIe:    base.pcie,
		MorphPCIe:   morph.pcie,
		BaseMemBus:  base.memBus,
		MorphMemBus: morph.memBus,
	}
	if row.BasePCIe > 0 {
		row.PCIeReduction = 1 - float64(row.MorphPCIe)/float64(row.BasePCIe)
	}
	if row.BaseMemBus > 0 {
		row.MemBusReduction = 1 - float64(row.MorphMemBus)/float64(row.BaseMemBus)
	}
	return row
}

func newTrafficResult(rows []TrafficRow) *TrafficResult {
	var pcieRed, memRed []float64
	for _, row := range rows {
		pcieRed = append(pcieRed, row.PCIeReduction)
		memRed = append(memRed, row.MemBusReduction)
	}
	return &TrafficResult{Rows: rows, AvgPCIeReduction: mean(pcieRed), AvgMemBusReduction: mean(memRed)}
}

// Table renders the experiment.
func (r *TrafficResult) Table() *Table {
	t := &Table{
		Title:  "§VII-A — interconnect traffic, conventional vs Morpheus",
		Header: []string{"app", "PCIe base", "PCIe morpheus", "PCIe saved", "membus base", "membus morpheus", "membus saved"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, row.BasePCIe.String(), row.MorphPCIe.String(), pct(row.PCIeReduction),
			row.BaseMemBus.String(), row.MorphMemBus.String(), pct(row.MemBusReduction))
	}
	t.Note("average PCIe reduction = %s (paper: %s); average CPU-memory bus reduction = %s (paper: %s)",
		pct(r.AvgPCIeReduction), pct(PaperPCIeTrafficReduction),
		pct(r.AvgMemBusReduction), pct(PaperMemBusTrafficReduction))
	return t
}
