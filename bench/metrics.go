package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"morpheus/internal/exp"
)

// source says which clock a metric is measured on. Host metrics vary from
// run to run and are reported as the median of the repetitions; simulated
// metrics are what the modelled hardware would take and must repeat bit
// for bit, which is what the identity hash checks.
type source int

const (
	host source = iota
	simulated
)

type def struct {
	name, unit, better string
	src                source
}

// gated lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order. They are the ones a later change is held to.
var gated = []def{
	{"setup_s", "s", "lower", host},
	{"throughput_mb_s", "MB/s", "higher", host},
	{"rss_p90_mb", "MB", "lower", host},
}

// workloadMetrics lists the end-to-end metrics printed in the record of the
// workloads they apply to. They are simulated (exact) or can read zero, so
// no bound is put on them; identity guards them instead.
var workloadMetrics = []def{
	{"failed_frac", "frac", "lower", simulated},
	{"deser_speedup", "x", "higher", simulated},
	{"app_speedup", "x", "higher", simulated},
	{"mean_ms", "ms", "lower", simulated},
	{"slo_miss_frac", "frac", "lower", simulated},
	{"max_rate_kreq_s", "kreq/s", "higher", simulated},
	{"gold_burn", "x", "lower", simulated},
	{"p50_ms", "ms", "lower", simulated},
	{"p99_ms", "ms", "lower", simulated},
	{"sim_mb_s", "MB/s", "higher", simulated},
}

// paperValues are the paper's published values of the end-to-end metrics
// it reports: Figure 8's mean deserialization speed-up and the abstract's
// end-to-end speed-up.
var paperValues = map[string]float64{
	"deser_speedup": exp.PaperDeserSpeedupAvg,
	"app_speedup":   exp.PaperEndToEndSpeedup,
}

// spanMetrics maps the program's own span names to the per-layer metric
// that sums their self time.
var spanMetrics = []struct{ span, metric string }{
	{"workload.gen", "workload.gen_s"},
	{"core.build", "core.build_s"},
	{"core.stage", "core.stage_s"},
	{"apps.run.baseline", "apps.run_s.baseline"},
	{"apps.run.morpheus", "apps.run_s.morpheus"},
	{"array.traffic", "array.traffic_s"},
	{"core.invoke", "core.invoke_s"},
	{"core.write", "core.write_s"},
	{"stats.export", "stats.export_s"},
	{"trace.flush", "trace.flush_s"},
}

// profilePackages are the groups of host.self.<pkg>: each CPU-profile
// sample counts toward the package of its leaf frame.
var profilePackages = []string{
	"workload", "serial", "mvm", "morphc", "sim", "ssd", "ftl", "flash", "nvme",
	"pcie", "host", "core", "apps", "array", "stats", "trace", "runtime", "other",
}

// perLayer lists every per-layer metric, in BENCHMARK.json order. Every
// workload prints all of them; a layer a workload never calls reads 0.
var perLayer = func() []def {
	var out []def
	for _, s := range spanMetrics {
		out = append(out, def{s.metric, "s", "lower", host})
	}
	for _, p := range profilePackages {
		out = append(out, def{"host.self." + p, "frac", "lower", host})
	}
	out = append(out,
		def{"host.alloc_b_per_in_b", "B/B", "lower", host},
		def{"host.gc_cycles", "count", "lower", host},
		def{"sim.events", "count", "lower", host},
		def{"sim.events_per_s", "1/s", "higher", host},
		def{"bench.trace_overhead", "x", "lower", host},
	)
	return append(out, simLayer...)
}()

// simLayer are the per-layer metrics read from the model after every
// repetition: registry counters, histogram means and gauge means, plus the
// values only a TrafficResult, an apps.Report or a tracer carries.
var simLayer = []def{
	{"phase.deserialization_ps.mean", "ps", "lower", simulated},
	{"phase.other_cpu_ps.mean", "ps", "lower", simulated},
	{"phase.gpu_cpu_copy_ps.mean", "ps", "lower", simulated},
	{"phase.gpu_kernel_ps.mean", "ps", "lower", simulated},
	{"ssd.cycles_per_byte", "cycles/B", "lower", simulated},
	{"pcie.host_bytes", "B", "lower", simulated},
	{"membus.bytes", "B", "lower", simulated},
	{"os.context_switches", "count", "lower", simulated},
	{"os.syscalls", "count", "lower", simulated},
	{"host.cpu_util.mean", "frac", "lower", simulated},
	{"host.submit.overhead_ps.mean", "ps", "lower", simulated},
	{"host.submit.coalesced_batch_size.mean", "count", "higher", simulated},
	{"nvme.MREAD.latency_ps.mean", "ps", "lower", simulated},
	{"nvme.commands", "count", "lower", simulated},
	{"nvme.queue_depth.mean", "count", "lower", simulated},
	{"ssd.slots_util.mean", "frac", "lower", simulated},
	{"flash.channel_util.mean", "frac", "lower", simulated},
	{"pcie.ssd_link_util.mean", "frac", "lower", simulated},
	{"array.rejected", "count", "lower", simulated},
	{"array.shard.slots_util.mean", "frac", "lower", simulated},
	{"array.fair_tenants", "frac", "higher", simulated},
	{"array.fair_shards", "frac", "higher", simulated},
	{"core.retries", "count", "lower", simulated},
	{"core.fallbacks", "count", "lower", simulated},
	{"core.replica_fallbacks", "count", "lower", simulated},
	{"core.invoke.attempts.mean", "count", "lower", simulated},
	{"core.invoke.latency_ps.replica-fallback.mean", "ps", "lower", simulated},
	{"flash.correctable", "count", "lower", simulated},
	{"array.replica.remote_reads", "count", "lower", simulated},
	{"array.windows", "count", "lower", simulated},
	{"array.rounds_per_window", "count", "lower", simulated},
	{"array.deferred_fetches", "count", "lower", simulated},
	{"array.early_fetches", "count", "lower", simulated},
	{"trace.recorded", "count", "lower", simulated},
	{"trace.kept_frac", "frac", "lower", simulated},
	{"ssd.cache.hit_rate", "frac", "higher", simulated},
	{"ssd.cache.evictions", "count", "lower", simulated},
	{"ssd.cache.invalidations", "count", "lower", simulated},
	{"nvme.WRITE.latency_ps.mean", "ps", "lower", simulated},
}

// value is one printed metric. Paper and Error are set only for the
// speed-ups the paper reports.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Paper *float64 `json:"paper,omitempty"`
	Error *float64 `json:"error,omitempty"`
}

// identity is the FNV-64a hash of every simulated metric, names and exact
// values in name order. A change meant only to make the simulator faster
// leaves it unchanged.
func identity(sim map[string]float64) string {
	h := fnv.New64a()
	for _, name := range sortedKeys(sim) {
		fmt.Fprintf(h, "%s=%s\n", name, strconv.FormatFloat(sim[name], 'g', -1, 64))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// firstDifference names the first simulated metric two repetitions
// disagree on, or "" when they agree bit for bit.
func firstDifference(a, b map[string]float64) string {
	for _, name := range sortedKeys(a) {
		if v, ok := b[name]; !ok || math.Float64bits(v) != math.Float64bits(a[name]) {
			return name
		}
	}
	for _, name := range sortedKeys(b) {
		if _, ok := a[name]; !ok {
			return name
		}
	}
	return ""
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. Exact, unlike the power-of-two stats.Histogram buckets.
func nearestRank[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}
