// Package exp is the experiment harness: runners that regenerate the rows
// and series of the paper's tables and figures (plus the ablations
// DESIGN.md calls out). One runner, RunApps, reads Figures 2, 8, 9 and
// 10 and the §VII-A/B numbers off one set of runs per application.
// Experiments lists them all; the cmd/morpheusbench binary and the
// repository's testing.B benchmarks are thin wrappers over this package.
package exp

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/flash"
	"morpheus/internal/sim"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the Table I input sizes (1.0 = paper size). The
	// simulation is analytic in input size, so shapes are scale-stable;
	// the default keeps bench runtimes pleasant.
	Scale float64
	// Seed drives the deterministic workload generators.
	Seed int64
	// CPUFreq overrides the host DVFS point (0 = default 2.5 GHz).
	CPUFreq units.Frequency
	// Mutate, if set, adjusts the system configuration before building.
	Mutate func(*core.SystemConfig)
	// Faults, when nonzero, installs a deterministic media fault model on
	// the flash array after staging (so setup writes are unaffected but
	// measured reads see the faults).
	Faults flash.FaultModel
	// Trace, when set, is attached to every system the experiment builds
	// (after staging, so setup I/O does not pollute it) and collects causal
	// spans across all runs.
	Trace *trace.Tracer
	// Metrics, when set, aggregates every run's counters, latency
	// histograms, and gauges across the experiment.
	Metrics *stats.Registry
	// MetricsWindow, when positive, enables windowed time-series
	// collection on every system the experiment builds: counters,
	// latency quantiles, and gauges are bucketed into fixed windows of
	// this width on the virtual clock. The aggregate Metrics registry
	// adopts the same window through the fold, so the artifact is
	// byte-identical at any Parallel setting. Zero keeps the default
	// whole-run aggregation (and the default artifact schema).
	MetricsWindow units.Duration
	// SLOs declares latency objectives tracked per window against the
	// named metric. A config's Name binds it to one tenant (application
	// name, as in the multiprogrammed experiment); "" or "*" applies to
	// every run under the name "all".
	SLOs []stats.SLOConfig
	// Array selects the array experiment's (E17) grid; the zero value runs
	// its default sweep. Every other experiment ignores it.
	Array ArraySweep
	// Parallel is the worker count: 0 uses one worker per CPU, 1 runs the
	// points one at a time. Sweep points and the shards of an array point
	// draw from one budget of this many workers, so the two layers of
	// parallelism never oversubscribe the machine together. Output
	// (tables, Metrics, Trace) is byte-identical at every setting; see
	// parallel.go and internal/array/parallel.go.
	Parallel int
	// budget is the experiment-wide worker semaphore runPoints lazily
	// creates; tests inject one to pin the cap.
	budget *sim.WorkerBudget
}

// observe wires the experiment-wide tracer into a freshly staged system.
// Call it after staging/ResetTimers so the trace starts at the
// measurement boundary.
func (o Options) observe(sys *core.System) {
	if o.Trace != nil {
		sys.AttachTracer(o.Trace)
	}
}

// collect folds one finished run's metrics into the experiment aggregate.
func (o Options) collect(sys *core.System) {
	if o.Metrics != nil {
		o.Metrics.Merge(sys.Metrics)
	}
}

// DefaultOptions is the bench-friendly configuration.
func DefaultOptions() Options {
	return Options{Scale: 1.0 / 256, Seed: 20160618} // ISCA'16 conference date
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0 / 256
	}
	return o.Scale
}

// buildSystem constructs a fresh testbed for one run.
func buildSystem(o Options, withGPU bool) (*core.System, error) {
	cfg := core.DefaultSystemConfig()
	cfg.WithGPU = withGPU
	if o.Mutate != nil {
		o.Mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if o.CPUFreq > 0 {
		sys.Host.SetFrequency(o.CPUFreq)
	}
	if o.MetricsWindow > 0 {
		sys.Metrics.EnableSeries(int64(o.MetricsWindow))
	}
	for _, c := range o.SLOs {
		if c.Name == "" || c.Name == "*" {
			c.Name = "all"
		}
		sys.Metrics.AddSLO(c)
	}
	return sys, nil
}

// TenantID returns the globally unique tenant name for an application
// instance running on one shard of an array ("grep@s2"). A bare
// application name remains the valid tenant of a single-system run.
func TenantID(app string, shard int) string { return fmt.Sprintf("%s@s%d", app, shard) }

// tenantBase strips the shard qualifier from a tenant name ("grep@s2" →
// "grep"); unqualified names pass through.
func tenantBase(tenant string) string {
	if i := strings.IndexByte(tenant, '@'); i >= 0 {
		return tenant[:i]
	}
	return tenant
}

// bindSLOs narrows the option set to the SLO configs that apply to one
// named tenant: configs naming that tenant plus the wildcards ("", "*").
// Experiments that run one application per system call this so a
// tenant-scoped objective only counts its own tenant's commands.
//
// Tenants may be shard-qualified (TenantID): a config naming the bare
// application binds to each shard-qualified instance separately, and its
// Name is rewritten to the qualified tenant. The rewrite is what keeps
// SLO keys unique across shards — without it, the same app running on
// two shards would fold both instances' counts under one "app|metric"
// key in the merged registry, colliding and double-counting the burn.
func bindSLOs(o Options, tenant string) Options {
	if len(o.SLOs) == 0 {
		return o
	}
	base := tenantBase(tenant)
	var kept []stats.SLOConfig
	for _, c := range o.SLOs {
		switch c.Name {
		case "", "*", tenant:
			kept = append(kept, c)
		case base:
			c.Name = tenant
			kept = append(kept, c)
		}
	}
	o.SLOs = kept
	return o
}

// runApp stages and executes one application in one mode on a fresh
// system, returning the report and the system (for counter inspection).
func runApp(app *apps.App, mode apps.Mode, o Options) (*apps.Report, *core.System, error) {
	o = bindSLOs(o, app.Name)
	sys, err := buildSystem(o, app.UsesGPU)
	if err != nil {
		return nil, nil, err
	}
	files, _, err := apps.Stage(sys, app, o.scale(), o.Seed)
	if err != nil {
		return nil, nil, err
	}
	if o.Faults != (flash.FaultModel{}) {
		sys.SSD.Flash.SetFaultModel(o.Faults)
	}
	sys.ResetTimers()
	o.observe(sys)
	rep, err := apps.Run(sys, app, files, mode)
	if err != nil {
		return nil, nil, err
	}
	o.collect(sys)
	return rep, sys, nil
}

// Table is a simple aligned text table used by every experiment printer.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// WriteCSV renders the table as RFC-4180-ish CSV (header row first; notes
// become trailing comment lines) for downstream plotting.
func (t *Table) WriteCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				io.WriteString(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			io.WriteString(w, c)
		}
		io.WriteString(w, "\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// geoMean returns the geometric mean of xs (0 for empty).
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
