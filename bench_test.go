// Package morpheus's benchmark harness: one testing.B per experiment of
// the paper's evaluation. Each benchmark regenerates its
// experiment on the simulated testbed, prints the same rows/series the
// paper reports (with -v), and publishes the headline statistic as a
// custom benchmark metric so regressions in the *shape* of the
// reproduction are visible in benchstat output.
//
//	go test -bench=. -benchmem            # everything
//	go test -bench=Apps -v                # Figures 2 and 8-10, §VII-A/B, with the tables
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

// BenchmarkApps regenerates the per-application evaluation from one set
// of runs per application: Figure 2 (E2), Figure 8 (E5), Figure 9 (E6),
// Figure 10 (E7), the §VII-A traffic (E8) and the §VII-B end-to-end
// comparison (E9). Metrics: average deserialization share (paper: 0.64);
// deserialization speedup average (paper: 1.66x), max (paper: 2.3x) and
// SpMV (paper: ~1.1x); average power saving (paper: 7%), max (paper:
// 17%) and average energy saving (paper: 42%); context-switch frequency
// and count reductions (paper: 98% / 97%); PCIe reduction (paper: 22%)
// and memory-bus reduction (paper: 58%); end-to-end speedup (paper:
// 1.32x) and with NVMe-P2P (paper: 1.39x).
func BenchmarkApps(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := exp.RunApps(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range r.Tables() {
				logTable(b, t)
			}
			b.ReportMetric(r.Fig2.AvgDeserFrac, "deser-frac")
			b.ReportMetric(r.Fig8.Avg, "avg-x")
			b.ReportMetric(r.Fig8.Max, "max-x")
			b.ReportMetric(r.Fig8.SpMV, "spmv-x")
			b.ReportMetric(r.Fig9.AvgPowerSaving, "power-saving")
			b.ReportMetric(r.Fig9.MaxPowerSaving, "power-saving-max")
			b.ReportMetric(r.Fig9.AvgEnergySaving, "energy-saving")
			b.ReportMetric(r.Fig10.AvgFreqReduction, "freq-reduction")
			b.ReportMetric(r.Fig10.AvgCountReduction, "count-reduction")
			b.ReportMetric(r.Traffic.AvgPCIeReduction, "pcie-reduction")
			b.ReportMetric(r.Traffic.AvgMemBusReduction, "membus-reduction")
			b.ReportMetric(r.EndToEnd.AvgSpeedup, "e2e-x")
			b.ReportMetric(r.EndToEnd.AvgSpeedupP2P, "e2e-p2p-x")
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
