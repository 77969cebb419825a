package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"

	"morpheus/internal/array"
	"morpheus/internal/core"
	"morpheus/internal/stats"
)

type phase int

const (
	setupPhase phase = iota
	runPhase
)

func (p phase) String() string {
	if p == runPhase {
		return "run"
	}
	return "setup"
}

// rep is one repetition of a workload: a fixed amount of work on freshly
// built systems. The workload fills it through timed and the collectors;
// finish turns what was collected into the simulated metrics.
type rep struct {
	seed int64
	sz   sizes
	tmp  string // directory for the artifacts a workload exports

	// Host time spent inside the workload's calls of each phase, and the
	// 90th percentile of the resident set sampled during the repetition.
	setup, run time.Duration
	rssP90MB   float64

	// Traced repetitions only; nil otherwise.
	spans *spanRecorder
	acct  *phaseAccount

	ops, failed int64 // operations attempted, and those that errored
	inBytes     int64 // serialized input bytes turned into objects

	// e2e holds the workload's simulated end-to-end metrics.
	e2e map[string]float64

	// Collected from every measured system and traffic run.
	reg         *stats.Registry
	gauges      map[string][]float64 // per-system time-weighted means
	events      int64
	correctable int64
	cyclesPerB  []float64
	traffic     struct {
		runs, windows, rounds, deferred, early int
		fairTenants, fairShards                float64
	}
	traceRecorded, traceKept int64

	sim map[string]float64 // every simulated metric, set by finish
}

func newRep(seed int64, sz sizes, tmp string) *rep {
	return &rep{
		seed: seed, sz: sz, tmp: tmp,
		e2e: map[string]float64{},
		reg: stats.NewRegistry(), gauges: map[string][]float64{},
	}
}

// timed runs one call into a layer, charging its host time to phase p and,
// in a traced repetition, recording it as a span. Calls must not nest.
func (r *rep) timed(p phase, span string, f func() error) error {
	r.acct.enter(p)
	h := r.spans.begin(span)
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.spans.end(h)
	if p == runPhase {
		r.run += d
	} else {
		r.setup += d
	}
	return err
}

// phaseAccount attributes allocation and GC cycles to the phase running
// when they happen, and labels the goroutine with that phase so the CPU
// profile can leave set-up out. Goroutines started inside a call (the
// array's shard workers) inherit the label.
type phaseAccount struct {
	cur      phase
	last     runtime.MemStats
	runAlloc uint64
	runGC    uint32
}

func newPhaseAccount() *phaseAccount {
	a := &phaseAccount{}
	runtime.ReadMemStats(&a.last)
	setPhaseLabel(setupPhase)
	return a
}

func (a *phaseAccount) enter(p phase) {
	if a == nil || p == a.cur {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if a.cur == runPhase {
		a.runAlloc += m.TotalAlloc - a.last.TotalAlloc
		a.runGC += m.NumGC - a.last.NumGC
	}
	a.last, a.cur = m, p
	setPhaseLabel(p)
}

// close settles the open phase and clears the goroutine's label.
func (a *phaseAccount) close() {
	a.enter(setupPhase)
	pprof.SetGoroutineLabels(context.Background())
}

func setPhaseLabel(p phase) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", p.String())))
}

// Registry names the collectors read. Histogram and gauge metrics are
// reported as "<name>.mean".
var (
	counterMetrics = []string{
		stats.PCIeHostBytes, stats.MemBusBytes, stats.CtxSwitches, stats.Syscalls,
		stats.NVMeCommands, "array.rejected", stats.CmdRetries, stats.HostFallbacks,
		stats.ReplicaFallbacks, "array.replica.remote_reads",
		stats.SSDCacheEvictions, stats.SSDCacheInvalidations,
	}
	histogramMetrics = []string{
		"phase.deserialization_ps", "phase.other_cpu_ps", "phase.gpu_cpu_copy_ps",
		"phase.gpu_kernel_ps", stats.HostSubmitOverhead, "nvme.MREAD.latency_ps",
		"core.invoke.attempts", "core.invoke.latency_ps.replica-fallback", "nvme.WRITE.latency_ps",
	}
	gaugeMetrics = []string{
		"host.cpu_util", "nvme.queue_depth", "ssd.slots_util", "flash.channel_util",
		"pcie.ssd_link_util", "array.shard.slots_util",
	}
)

// collect folds one finished system into the repetition's layer metrics.
// Call it once per system per measured run, before any ResetTimers.
func (r *rep) collect(sys *core.System) {
	r.reg.Merge(sys.Metrics)
	for _, name := range gaugeMetrics {
		if g := sys.Metrics.Gauge(name); g.Samples() > 0 {
			r.gauges[name] = append(r.gauges[name], g.Mean())
		}
	}
	r.events += sys.Engine.Fired()
	c, _ := sys.SSD.Flash.FaultStats()
	r.correctable += c
}

// collectTraffic folds one traffic run's protocol and fairness results.
func (r *rep) collectTraffic(tr *array.TrafficResult) {
	t := &r.traffic
	t.runs++
	t.windows += tr.Windows
	t.rounds += tr.Rounds
	t.deferred += tr.DeferredFetches
	t.early += tr.EarlyFetches
	t.fairTenants += tr.FairnessTenants
	t.fairShards += tr.FairnessShards
}

// finish computes every simulated metric: the workload's end-to-end ones
// and each simLayer metric, zero where the workload never used the layer.
func (r *rep) finish() {
	sim := map[string]float64{}
	for name, v := range r.e2e {
		sim[name] = v
	}
	counters := r.reg.Counters()
	for _, name := range counterMetrics {
		sim[name] = float64(counters.Get(name))
	}
	for _, name := range histogramMetrics {
		sim[name+".mean"] = r.reg.Histogram(name).Mean()
	}
	for _, name := range gaugeMetrics {
		sim[name+".mean"] = mean(r.gauges[name])
	}
	sim["host.submit.coalesced_batch_size.mean"] = ratio(counters.Get(stats.HostCoalesced), counters.Get(stats.HostDoorbells))
	hits := counters.Get(stats.SSDCacheHits)
	sim["ssd.cache.hit_rate"] = ratio(hits, hits+counters.Get(stats.SSDCacheMisses))
	sim["ssd.cycles_per_byte"] = mean(r.cyclesPerB)
	sim["flash.correctable"] = float64(r.correctable)
	t := r.traffic
	sim["array.windows"] = float64(t.windows)
	sim["array.rounds_per_window"] = ratio(int64(t.rounds), int64(t.windows))
	sim["array.deferred_fetches"] = float64(t.deferred)
	sim["array.early_fetches"] = float64(t.early)
	sim["array.fair_tenants"] = ratio(t.fairTenants, float64(t.runs))
	sim["array.fair_shards"] = ratio(t.fairShards, float64(t.runs))
	sim["trace.recorded"] = float64(r.traceRecorded)
	sim["trace.kept_frac"] = ratio(r.traceKept, r.traceRecorded)
	r.sim = sim
	// Release what was collected: later repetitions must not pay for it in
	// their resident set.
	r.reg, r.gauges = nil, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
