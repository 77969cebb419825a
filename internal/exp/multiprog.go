package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/host"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// MultiprogRow is one application under CPU competition: deserialization
// time in isolation and with a co-runner, for both models.
type MultiprogRow struct {
	App            string
	BaseIsolated   units.Duration
	BaseContended  units.Duration
	MorphIsolated  units.Duration
	MorphContended units.Duration
	BaseSlowdown   float64
	MorphSlowdown  float64
}

// MultiprogResult is experiment E12: the paper's §III multiprogramming
// claim, quantified. The conventional model fights the co-runner for CPU
// cycles; the Morpheus model barely touches the host CPU during
// deserialization, so a loaded machine costs it almost nothing.
type MultiprogResult struct {
	Load             float64
	Rows             []MultiprogRow
	AvgBaseSlowdown  float64
	AvgMorphSlowdown float64
	// Counters aggregates every tenant run's counter set (merged copies,
	// not shared state), exposed read-only for cross-tenant accounting.
	Counters stats.Snapshot
}

// multiprogLoad is the fraction of every host core the co-runner consumes.
const multiprogLoad = 0.5

// RunMultiprog measures deserialization under a co-runner consuming
// multiprogLoad of every host core.
func RunMultiprog(o Options) (*MultiprogResult, error) {
	res := &MultiprogResult{Load: multiprogLoad}
	// A subset representative of both parallel models keeps the sweep
	// affordable: a 4-thread MPI app, a CUDA app, and the float outlier.
	names := []string{"pagerank", "bfs", "nn", "spmv"}
	type point struct {
		row MultiprogRow
		// counters carries the point's tenant counter merge back to the
		// in-order fold, where the cross-tenant total accumulates.
		counters *stats.Set
	}
	points, err := runPoints(o, len(names), func(i int, po Options) (point, error) {
		name := names[i]
		app, err := apps.ByName(name)
		if err != nil {
			return point{}, err
		}
		// Each application is one tenant: objectives named after it bind
		// to its systems only.
		po = bindSLOs(po, name)
		pt := point{row: MultiprogRow{App: name}, counters: stats.NewSet()}
		for _, contended := range []bool{false, true} {
			for _, mode := range []apps.Mode{apps.ModeBaseline, apps.ModeMorpheus} {
				sys, err := buildSystem(po, app.UsesGPU)
				if err != nil {
					return point{}, err
				}
				files, _, err := apps.Stage(sys, app, po.scale(), po.Seed)
				if err != nil {
					return point{}, err
				}
				sys.ResetTimers()
				po.observe(sys)
				if contended {
					// Generous horizon: several times the isolated time.
					cr := host.DefaultCoRunner(sys.Host, multiprogLoad)
					cr.Occupy(sys.Host, 10*units.Second)
				}
				rep, err := apps.Run(sys, app, files, mode)
				if err != nil {
					return point{}, fmt.Errorf("multiprog %s %v: %w", name, mode, err)
				}
				pt.counters.Merge(sys.Counters)
				po.collect(sys)
				switch {
				case mode == apps.ModeBaseline && !contended:
					pt.row.BaseIsolated = rep.Deser
				case mode == apps.ModeBaseline && contended:
					pt.row.BaseContended = rep.Deser
				case mode == apps.ModeMorpheus && !contended:
					pt.row.MorphIsolated = rep.Deser
				default:
					pt.row.MorphContended = rep.Deser
				}
			}
		}
		pt.row.BaseSlowdown = float64(pt.row.BaseContended) / float64(pt.row.BaseIsolated)
		pt.row.MorphSlowdown = float64(pt.row.MorphContended) / float64(pt.row.MorphIsolated)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	var baseS, morphS []float64
	total := stats.NewSet()
	for _, pt := range points {
		total.Merge(pt.counters)
		res.Rows = append(res.Rows, pt.row)
		baseS = append(baseS, pt.row.BaseSlowdown)
		morphS = append(morphS, pt.row.MorphSlowdown)
	}
	res.AvgBaseSlowdown = mean(baseS)
	res.AvgMorphSlowdown = mean(morphS)
	res.Counters = total.Snapshot()
	return res, nil
}

// Table renders the experiment.
func (r *MultiprogResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Multiprogrammed environment — deserialization under a %.0f%%-load co-runner (E12)",
			100*r.Load),
		Header: []string{"app", "baseline isolated", "baseline contended", "slowdown",
			"morpheus isolated", "morpheus contended", "slowdown"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App,
			row.BaseIsolated.String(), row.BaseContended.String(), f2(row.BaseSlowdown)+"x",
			row.MorphIsolated.String(), row.MorphContended.String(), f2(row.MorphSlowdown)+"x")
	}
	t.Note("conventional deserialization slows %sx under load; Morpheus %sx — the §III claim that offload \"frees up scarce CPU resources\"",
		f2(r.AvgBaseSlowdown), f2(r.AvgMorphSlowdown))
	return t
}
