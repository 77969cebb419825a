package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// appRun is what a point keeps of one run once its system is dropped:
// the report, and the host frequency and traffic counters Figure 9 and
// §VII-A read, taken right after the run.
type appRun struct {
	rep          *apps.Report
	freq         units.Frequency
	pcie, memBus units.Bytes
}

// runMode runs app in one mode on a fresh system.
func runMode(app *apps.App, mode apps.Mode, o Options) (appRun, error) {
	rep, sys, err := runApp(app, mode, o)
	if err != nil {
		return appRun{}, fmt.Errorf("apps %s %s: %w", app.Name, mode, err)
	}
	c := sys.Counters
	return appRun{
		rep:    rep,
		freq:   sys.Host.CPU.Freq,
		pcie:   c.Bytes(stats.PCIeHostBytes) + c.Bytes(stats.PCIeP2PBytes),
		memBus: c.Bytes(stats.MemBusBytes),
	}, nil
}

// appRows is one application's row of every figure RunApps regenerates.
type appRows struct {
	fig2    Fig2Row
	fig8    Fig8Row
	fig9    Fig9Row
	fig10   Fig10Row
	traffic TrafficRow
	e2e     E2ERow
}

// AppsResult is the paper's per-application evaluation: Figures 2, 8, 9
// and 10, the §VII-A traffic and the §VII-B end-to-end numbers.
type AppsResult struct {
	Fig2     *Fig2Result
	Fig8     *Fig8Result
	Fig9     *Fig9Result
	Fig10    *Fig10Result
	Traffic  *TrafficResult
	EndToEnd *E2EResult
}

// RunApps regenerates the per-application evaluation from one set of runs
// per application, in Table I order: conventional, on Morpheus-SSD, and,
// for a GPU application, on Morpheus-SSD with NVMe-P2P. Every figure
// reads its row off those runs. Applications are independent sweep
// points, so they fan out across the worker pool.
func RunApps(o Options) (*AppsResult, error) {
	points, err := runApps(o, func(app *apps.App, po Options) (appRows, error) {
		base, err := runMode(app, apps.ModeBaseline, po)
		if err != nil {
			return appRows{}, err
		}
		morph, err := runMode(app, apps.ModeMorpheus, po)
		if err != nil {
			return appRows{}, err
		}
		if err := apps.VerifyObjects(base.rep, morph.rep); err != nil {
			return appRows{}, fmt.Errorf("apps %s: object mismatch: %w", app.Name, err)
		}
		var p2p *apps.Report
		if app.UsesGPU {
			r, err := runMode(app, apps.ModeMorpheusP2P, po)
			if err != nil {
				return appRows{}, err
			}
			p2p = r.rep
		}
		return appRows{
			fig2:    fig2Row(app, base.rep),
			fig8:    fig8Row(app.Name, base.rep, morph.rep),
			fig9:    fig9Row(app.Name, base, morph),
			fig10:   fig10Row(app.Name, base.rep, morph.rep),
			traffic: trafficRow(app.Name, base, morph),
			e2e:     e2eRow(app.Name, base.rep, morph.rep, p2p),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var (
		fig2    []Fig2Row
		fig8    []Fig8Row
		fig9    []Fig9Row
		fig10   []Fig10Row
		traffic []TrafficRow
		e2e     []E2ERow
	)
	for _, p := range points {
		fig2 = append(fig2, p.fig2)
		fig8 = append(fig8, p.fig8)
		fig9 = append(fig9, p.fig9)
		fig10 = append(fig10, p.fig10)
		traffic = append(traffic, p.traffic)
		e2e = append(e2e, p.e2e)
	}
	return &AppsResult{
		Fig2:     newFig2Result(fig2),
		Fig8:     newFig8Result(fig8),
		Fig9:     newFig9Result(fig9),
		Fig10:    newFig10Result(fig10),
		Traffic:  newTrafficResult(traffic),
		EndToEnd: newE2EResult(e2e),
	}, nil
}

// Tables renders the six in paper order.
func (r *AppsResult) Tables() []*Table {
	return []*Table{r.Fig2.Table(), r.Fig8.Table(), r.Fig9.Table(), r.Fig10.Table(), r.Traffic.Table(), r.EndToEnd.Table()}
}
