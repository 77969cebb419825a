package exp

// Experiment is one entry of the evaluation: the name morpheusbench
// selects it by, the paper artifact it regenerates, and a runner that
// returns its rendered tables.
type Experiment struct {
	Name, Title string
	Run         func(Options) ([]*Table, error)
}

// oneTable adapts a runner whose result renders as a single table.
func oneTable[R interface{ Table() *Table }](run func(Options) (R, error)) func(Options) ([]*Table, error) {
	return func(o Options) ([]*Table, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return []*Table{r.Table()}, nil
	}
}

// tables adapts a runner whose result renders as several tables.
func tables[R interface{ Tables() []*Table }](run func(Options) (R, error)) func(Options) ([]*Table, error) {
	return func(o Options) ([]*Table, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// Experiments lists every experiment in presentation order: the paper's
// tables and figures first, then the extensions.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I — benchmark applications and inputs", oneTable(RunTable1)},
		{"fig3", "Figure 3 — effective bandwidth vs storage device and CPU frequency", oneTable(RunFig3)},
		{"profile", "§II — parse-cost profile (conversion vs OS overhead)", oneTable(RunProfile)},
		{"apps", "Figures 2, 8, 9, 10 and §VII-A/B — per-application conventional vs Morpheus-SSD", tables(RunApps)},
		{"slowhost", "slower-server sensitivity (1.2 GHz host)", oneTable(RunSlowHost)},
		{"multiprog", "multiprogrammed environment (E12, extension of §III)", oneTable(RunMultiprog)},
		{"serialize", "MWRITE serialization (E13, extension)", oneTable(RunSerialize)},
		{"faults", "fault campaign — retries and degraded mode (E14, extension)", oneTable(RunFaults)},
		{"cachesweep", "SSD object-cache sweep (E15, extension)", oneTable(RunCachesweep)},
		{"serve", "batched submission sweep (E16, extension)", oneTable(RunServe)},
		{"array", "sharded array serving sweep (E17, extension)", oneTable(RunArray)},
		{"ablation", "design-choice ablations (DESIGN.md §4)", tables(RunAblation)},
	}
}
