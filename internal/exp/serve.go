package exp

import (
	"bytes"
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/core"
	"morpheus/internal/flash"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// The serve experiment (EXPERIMENTS.md §E16). This is an extension beyond
// the paper, in the spirit of its OS-overhead measurement: the paper shows
// driver/OS work dominating host-side deserialization cost, and the same
// pressure applies to our own submission path once a serving front-end
// pushes multi-tenant traffic volumes through it. The sweep re-runs a
// fixed request stream at several (batch, window) depths and reports
// throughput, MREAD tail latency, and the per-command host submission
// overhead the new host.submit.* instrumentation attributes — plus the
// reduction factor against command-at-a-time submission measured inside
// the same point, with a byte-identity check that batching never changes
// the served objects.

// serveApps are the workloads: CPU-side deserialization apps, so the
// sweep measures the submission path without GPU noise.
var serveApps = []string{"grep", "wordcount"}

// serveDepths is the (batch, window) grid. (1,1) is command-at-a-time —
// one SQE per doorbell, reap before the next submit; the others coalesce
// progressively larger batches under a window twice the batch.
var serveDepths = []struct{ batch, window int }{
	{1, 1},
	{8, 16},
	{32, 64},
}

// servePasses is how many times the request stream re-reads each shard.
const servePasses = 2

// The sweep narrows the command split like E15 does: bench-scale shards
// with the paper-default 128 KiB MDTS produce trains of only a few
// commands, too short to show coalescing. 32 KiB MDTS gives every train
// enough chunks to fill the deeper batches.
const serveMDTS = 32 * units.KiB

// ServeRow is one (app, batch, window) grid point.
type ServeRow struct {
	App    string
	Batch  int
	Window int

	// Bytes served over the virtual duration of the request stream.
	Bytes      units.Bytes
	Duration   units.Duration
	Throughput float64 // MB/s

	// P99 is the MREAD submit-to-device-completion tail.
	P99 units.Duration

	// OverheadPS is the mean host submission overhead per command
	// (host.submit.overhead_ps); BaseOverheadPS is the same measured at
	// (1,1) inside this point, and Reduction their ratio.
	OverheadPS     float64
	BaseOverheadPS float64
	Reduction      float64

	// Doorbells and SQEs show the coalescing factor directly.
	Doorbells int64
	SQEs      int64
	Coalesce  float64
}

// ServeResult is the whole sweep.
type ServeResult struct {
	Rows []ServeRow
	// MaxReduction is the best per-command overhead reduction over
	// command-at-a-time submission.
	MaxReduction float64
}

// serveRun pushes the request stream through one system configured at the
// given depths, returning the final virtual time, the system (for counter
// and histogram inspection), and the concatenated per-read object streams
// for differential comparison.
func serveRun(po Options, appName string, batch, window int) (units.Duration, *core.System, [][]byte, error) {
	callerMutate := po.Mutate
	po.Mutate = func(cfg *core.SystemConfig) {
		if callerMutate != nil {
			callerMutate(cfg)
		}
		cfg.BatchDepth = batch
		cfg.WindowDepth = window
		cfg.SSD.MDTS = serveMDTS
	}
	po = bindSLOs(po, appName)
	sys, err := buildSystem(po, false)
	if err != nil {
		return 0, nil, nil, err
	}
	app, err := apps.ByName(appName)
	if err != nil {
		return 0, nil, nil, err
	}
	files, _, err := apps.Stage(sys, app, po.scale(), po.Seed)
	if err != nil {
		return 0, nil, nil, err
	}
	if po.Faults != (flash.FaultModel{}) {
		sys.SSD.Flash.SetFaultModel(po.Faults)
	}
	sys.ResetTimers()
	po.observe(sys)

	var outs [][]byte
	t := units.Time(0)
	for pass := 0; pass < servePasses; pass++ {
		for _, f := range files {
			res, err := sys.InvokeStorageApp(t, core.InvokeOptions{App: app.StorageApp(), File: f})
			if err != nil {
				return 0, nil, nil, err
			}
			t = res.Done
			outs = append(outs, res.Out)
		}
	}
	po.collect(sys)
	return units.Duration(t), sys, outs, nil
}

// RunServe runs the grid. Points are independent and fan out across the
// worker pool; output is byte-identical at any -parallel setting.
func RunServe(o Options) (*ServeResult, error) {
	type point struct {
		app           string
		batch, window int
	}
	var grid []point
	for _, app := range serveApps {
		for _, d := range serveDepths {
			grid = append(grid, point{app: app, batch: d.batch, window: d.window})
		}
	}
	rows, err := runPoints(o, len(grid), func(i int, po Options) (ServeRow, error) {
		p := grid[i]
		// Command-at-a-time reference, measured inside the point so the
		// reduction factor and the differential check come from the same
		// staged data. Its telemetry stays point-local (no observe/collect
		// into the experiment aggregate — the candidate run below is the
		// point's contribution).
		ref := po
		ref.Trace, ref.Metrics, ref.MetricsWindow, ref.SLOs = nil, nil, 0, nil
		_, baseSys, baseOuts, err := serveRun(ref, p.app, 1, 1)
		if err != nil {
			return ServeRow{}, fmt.Errorf("serve %s base: %w", p.app, err)
		}
		dur, sys, outs, err := serveRun(po, p.app, p.batch, p.window)
		if err != nil {
			return ServeRow{}, fmt.Errorf("serve %s (%d,%d): %w", p.app, p.batch, p.window, err)
		}
		if len(baseOuts) != len(outs) {
			return ServeRow{}, fmt.Errorf("serve %s: read counts differ: %d vs %d", p.app, len(baseOuts), len(outs))
		}
		for j := range outs {
			if !bytes.Equal(baseOuts[j], outs[j]) {
				return ServeRow{}, fmt.Errorf("serve %s (%d,%d): read %d differs from command-at-a-time", p.app, p.batch, p.window, j)
			}
		}
		var total units.Bytes
		for _, out := range baseOuts {
			total += units.Bytes(len(out))
		}
		row := ServeRow{
			App:            p.app,
			Batch:          p.batch,
			Window:         p.window,
			Bytes:          total,
			Duration:       dur,
			P99:            units.Duration(sys.Metrics.Histogram("nvme.MREAD.latency_ps").Quantile(0.99)),
			OverheadPS:     sys.Metrics.Histogram(stats.HostSubmitOverhead).Mean(),
			BaseOverheadPS: baseSys.Metrics.Histogram(stats.HostSubmitOverhead).Mean(),
			Doorbells:      sys.Counters.Get(stats.HostDoorbells),
			SQEs:           sys.Counters.Get(stats.HostSQEs),
		}
		row.Throughput = float64(total) / units.Duration(dur).Seconds() / 1e6
		if row.OverheadPS > 0 {
			row.Reduction = row.BaseOverheadPS / row.OverheadPS
		}
		if row.Doorbells > 0 {
			row.Coalesce = float64(row.SQEs) / float64(row.Doorbells)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ServeResult{Rows: rows}
	for _, row := range rows {
		if row.Reduction > res.MaxReduction {
			res.MaxReduction = row.Reduction
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *ServeResult) Table() *Table {
	t := &Table{
		Title: "E16 — batched submission sweep (extension beyond the paper)",
		Header: []string{"app", "batch", "window", "throughput", "MREAD p99",
			"submit/cmd", "at (1,1)", "reduction", "doorbells", "coalesce"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.App, fmt.Sprintf("%d", row.Batch), fmt.Sprintf("%d", row.Window),
			fmt.Sprintf("%.1f MB/s", row.Throughput), row.P99.String(),
			units.Duration(row.OverheadPS).String(), units.Duration(row.BaseOverheadPS).String(),
			f2(row.Reduction)+"x",
			fmt.Sprintf("%d", row.Doorbells), f2(row.Coalesce))
	}
	t.Note("extension beyond the paper: the batched front-end applies its OS-overhead lesson to our own submission path")
	t.Note("max submit-overhead reduction = %sx over command-at-a-time; submit/cmd = mean of %s", f2(r.MaxReduction), stats.HostSubmitOverhead)
	return t
}
