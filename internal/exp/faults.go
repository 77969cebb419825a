package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/flash"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// E14 — fault campaign. The paper evaluates Morpheus on healthy hardware;
// this experiment asks what the offload path costs when the hardware is
// not healthy: correctable ECC retries (latency tax), uncorrectable media
// loss (data gone until the replica re-fetch), and a controller without
// the Morpheus opcodes (degraded mode from the first command). Every
// scenario must complete with bit-identical objects; what varies is which
// path served and what resilience machinery it burned.

// corr20PerM is the campaign's correctable-fault rate: 20% of reads
// trigger an ECC read-retry.
const corr20PerM = 200_000

// FaultRow is one (app, scenario) cell of the campaign.
type FaultRow struct {
	App      string
	Scenario string
	Mode     apps.Mode
	// Completed is whether the run produced the full object set.
	Completed bool
	// Served summarizes which path produced the objects ("morpheus",
	// "host", or "mixed" when only some shards fell back).
	Served string
	Deser  units.Duration
	// Slowdown is Deser relative to the same mode family's clean run.
	Slowdown float64
	// Resilience counters for the run.
	Retries, Timeouts, Fallbacks, Replicas int64
	// Injected-fault activity on the flash array.
	Correctable, Uncorrectable int64
	// Err is the failure, for rows that did not complete.
	Err string
}

// FaultsResult is the whole campaign.
type FaultsResult struct {
	Rows []FaultRow
	// Completion per scenario name.
	Completed map[string]int
	Total     map[string]int
}

// scenarioSpec is one column of the campaign.
type scenarioSpec struct {
	name   string
	faults flash.FaultModel
	mode   apps.Mode
	// noMorpheus strips the extension opcodes from the controller.
	noMorpheus bool
}

func faultScenarios(seed uint64) []scenarioSpec {
	return []scenarioSpec{
		{name: "corr20/baseline", mode: apps.ModeBaseline,
			faults: flash.FaultModel{CorrectablePerM: corr20PerM, Seed: seed}},
		{name: "corr20/morpheus", mode: apps.ModeMorpheus,
			faults: flash.FaultModel{CorrectablePerM: corr20PerM, Seed: seed}},
		{name: "uncorr/morph+fb", mode: apps.ModeMorpheusFallback,
			faults: flash.FaultModel{UncorrectablePerM: 1_000_000, Seed: seed}},
		{name: "nodev/morph+fb", mode: apps.ModeMorpheusFallback,
			noMorpheus: true},
	}
}

// RunFaults regenerates the E14 campaign: for every application, a clean
// baseline and a clean Morpheus run set the reference times, then each
// fault scenario runs on a fresh system with the fault model installed
// after staging. Completed scenarios are verified bit-for-bit against the
// clean baseline objects.
func RunFaults(o Options) (*FaultsResult, error) {
	perApp, err := runApps(o, func(app *apps.App, po Options) ([]FaultRow, error) {
		scens := faultScenarios(uint64(po.Seed))
		cleanBase, _, err := runApp(app, apps.ModeBaseline, po)
		if err != nil {
			return nil, fmt.Errorf("faults %s clean baseline: %w", app.Name, err)
		}
		cleanMorph, _, err := runApp(app, apps.ModeMorpheus, po)
		if err != nil {
			return nil, fmt.Errorf("faults %s clean morpheus: %w", app.Name, err)
		}
		var rows []FaultRow
		for _, sc := range scens {
			so := po
			so.Faults = sc.faults
			if sc.noMorpheus {
				outer := po.Mutate
				so.Mutate = func(cfg *core.SystemConfig) {
					if outer != nil {
						outer(cfg)
					}
					cfg.SSD.MorpheusSupported = false
				}
			}
			row := FaultRow{App: app.Name, Scenario: sc.name, Mode: sc.mode}
			rep, sys, err := runApp(app, sc.mode, so)
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			if err := apps.VerifyObjects(cleanBase, rep); err != nil {
				return nil, fmt.Errorf("faults %s %s: object mismatch: %w", app.Name, sc.name, err)
			}
			row.Completed = true
			row.Deser = rep.Deser
			ref := cleanMorph.Deser
			if sc.mode == apps.ModeBaseline {
				ref = cleanBase.Deser
			}
			if ref > 0 {
				row.Slowdown = float64(rep.Deser) / float64(ref)
			}
			switch {
			case rep.Fallbacks == 0:
				row.Served = "morpheus"
			case rep.Fallbacks == len(rep.Objects):
				row.Served = "host"
			default:
				row.Served = "mixed"
			}
			if sc.mode == apps.ModeBaseline {
				row.Served = "host"
			}
			row.Retries = sys.Counters.Get(stats.CmdRetries)
			row.Timeouts = sys.Counters.Get(stats.CmdTimeouts)
			row.Fallbacks = sys.Counters.Get(stats.HostFallbacks)
			row.Replicas = sys.Counters.Get(stats.ReplicaFallbacks)
			row.Correctable, row.Uncorrectable = sys.SSD.Flash.FaultStats()
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	res := &FaultsResult{Completed: make(map[string]int), Total: make(map[string]int)}
	for _, rows := range perApp {
		for _, row := range rows {
			res.Rows = append(res.Rows, row)
			res.Total[row.Scenario]++
			if row.Completed {
				res.Completed[row.Scenario]++
			}
		}
	}
	return res, nil
}

// Table renders the campaign.
func (r *FaultsResult) Table() *Table {
	t := &Table{
		Title: "E14 — fault campaign: retry/fallback behaviour under media faults",
		Header: []string{"app", "scenario", "mode", "done", "served", "deser",
			"slowdown", "retries", "timeouts", "fallbacks", "replica", "corr", "uncorr"},
	}
	for _, row := range r.Rows {
		if !row.Completed {
			t.AddRow(row.App, row.Scenario, row.Mode.String(), "FAIL", "-", "-", "-",
				"-", "-", "-", "-", "-", "-")
			t.Note("%s %s failed: %s", row.App, row.Scenario, row.Err)
			continue
		}
		t.AddRow(row.App, row.Scenario, row.Mode.String(), "ok", row.Served,
			row.Deser.String(), f2(row.Slowdown)+"x",
			fmt.Sprint(row.Retries), fmt.Sprint(row.Timeouts),
			fmt.Sprint(row.Fallbacks), fmt.Sprint(row.Replicas),
			fmt.Sprint(row.Correctable), fmt.Sprint(row.Uncorrectable))
	}
	for _, sc := range faultScenarios(0) {
		t.Note("%s: %d/%d apps completed", sc.name, r.Completed[sc.name], r.Total[sc.name])
	}
	t.Note("corr20 injects ECC read-retries on 20%% of reads (latency only); uncorr loses every page, forcing the replica re-fetch path")
	return t
}
