// Package morpheus's benchmark harness: one testing.B per table and
// figure of the paper's evaluation. Each benchmark regenerates its
// experiment on the simulated testbed, prints the same rows/series the
// paper reports (with -v), and publishes the headline statistic as a
// custom benchmark metric so regressions in the *shape* of the
// reproduction are visible in benchstat output.
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=Fig8 -v                # one figure, with the table
//
// The -scale knob of cmd/morpheusbench applies here through
// MORPHEUS_BENCH_SCALE (a fraction of the Table I input sizes; default
// 1/256).
package morpheus

import (
	"os"
	"strconv"
	"testing"

	"morpheus/internal/exp"
)

func benchOptions() exp.Options {
	o := exp.DefaultOptions()
	if s := os.Getenv("MORPHEUS_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			o.Scale = v
		}
	}
	return o
}

func logTable(b *testing.B, t *exp.Table) {
	b.Helper()
	if testing.Verbose() {
		b.Log("\n" + t.String())
	}
}

// BenchmarkTable1Inventory regenerates Table I (E1): the application
// suite and its (scaled) input sizes.
func BenchmarkTable1Inventory(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable1(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			var total float64
			for _, row := range r.Rows {
				total += float64(row.ScaledInput)
			}
			b.ReportMetric(total, "input-bytes")
		}
	}
}

// BenchmarkFig2Breakdown regenerates Figure 2 (E2): the conventional
// model's execution-time breakdown. Metric: average deserialization share
// (paper: 0.64).
func BenchmarkFig2Breakdown(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig2(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.AvgDeserFrac, "deser-frac")
		}
	}
}

// BenchmarkFig3EffectiveBandwidth regenerates Figure 3 (E3): effective
// deserialization bandwidth across media and CPU frequencies. Metrics:
// NVMe/HDD ratio at 2.5 GHz (paper: ~1.5) and RamDrive/NVMe (paper: ~1.0).
func BenchmarkFig3EffectiveBandwidth(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig3(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.NVMeOverHDD25, "nvme/hdd")
			b.ReportMetric(r.RAMOverNVMe25, "ram/nvme")
		}
	}
}

// BenchmarkHostParseProfile regenerates the §II profile (E4). Metrics:
// stripped-parse speedup (paper: ~6.6x) and the conversion share of full
// parse time (paper: ~15%).
func BenchmarkHostParseProfile(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunProfile(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.StrippedSpeedup, "stripped-x")
			b.ReportMetric(r.ConversionShare, "convert-share")
		}
	}
}

// BenchmarkFig8DeserSpeedup regenerates Figure 8 (E5): per-application
// deserialization speedup with Morpheus-SSD. Metrics: average (paper:
// 1.66x), max (paper: 2.3x), and SpMV (paper: ~1.1x).
func BenchmarkFig8DeserSpeedup(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig8(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.Avg, "avg-x")
			b.ReportMetric(r.Max, "max-x")
			b.ReportMetric(r.SpMV, "spmv-x")
		}
	}
}

// BenchmarkFig9PowerEnergy regenerates Figure 9 (E6): normalized power
// and energy during deserialization. Metrics: average power saving
// (paper: 7%), max (paper: 17%), average energy saving (paper: 42%).
func BenchmarkFig9PowerEnergy(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig9(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.AvgPowerSaving, "power-saving")
			b.ReportMetric(r.MaxPowerSaving, "power-saving-max")
			b.ReportMetric(r.AvgEnergySaving, "energy-saving")
		}
	}
}

// BenchmarkFig10ContextSwitches regenerates Figure 10 (E7). Metrics:
// context-switch frequency and count reductions (paper: 98% / 97%).
func BenchmarkFig10ContextSwitches(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig10(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.AvgFreqReduction, "freq-reduction")
			b.ReportMetric(r.AvgCountReduction, "count-reduction")
		}
	}
}

// BenchmarkTrafficReduction regenerates the §VII-A traffic numbers (E8).
// Metrics: PCIe reduction (paper: 22%) and memory-bus reduction (paper:
// 58%).
func BenchmarkTrafficReduction(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTraffic(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.AvgPCIeReduction, "pcie-reduction")
			b.ReportMetric(r.AvgMemBusReduction, "membus-reduction")
		}
	}
}

// BenchmarkEndToEnd regenerates the §VII-B end-to-end comparison (E9).
// Metrics: average speedup (paper: 1.32x) and with NVMe-P2P (paper:
// 1.39x).
func BenchmarkEndToEnd(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunEndToEnd(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.AvgSpeedup, "e2e-x")
			b.ReportMetric(r.AvgSpeedupP2P, "e2e-p2p-x")
		}
	}
}

// BenchmarkSlowHost regenerates the slower-server sensitivity study
// (E10). Metric: the 1.2 GHz end-to-end speedup (must exceed the 2.5 GHz
// one).
func BenchmarkSlowHost(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunSlowHost(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.Fast.AvgSpeedup, "fast-x")
			b.ReportMetric(r.Slow.AvgSpeedup, "slow-x")
		}
	}
}

// BenchmarkMultiprog runs the multiprogrammed-environment experiment
// (E12, extension): deserialization under a 50%-load co-runner. Metrics:
// contended/isolated slowdown for both models.
func BenchmarkMultiprog(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunMultiprog(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.AvgBaseSlowdown, "base-slowdown")
			b.ReportMetric(r.AvgMorphSlowdown, "morph-slowdown")
		}
	}
}

// BenchmarkSerialize runs the MWRITE serialization microbench (E13,
// extension). Metric: device-vs-host serialization speedup.
func BenchmarkSerialize(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunSerialize(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logTable(b, r.Table())
			b.ReportMetric(r.Speedup, "serialize-x")
		}
	}
}

// BenchmarkAblation runs the design-choice ablations of DESIGN.md §4
// (E11): sampled-vs-exact timing, softfloat sweep, MDTS sweep, core-count
// sweep, batch-depth sweep.
func BenchmarkAblation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunAblation(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range r.Tables() {
				logTable(b, t)
			}
		}
	}
}
