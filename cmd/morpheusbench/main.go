// Command morpheusbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	morpheusbench -exp all                 # everything
//	morpheusbench -exp fig8               # one experiment
//	morpheusbench -exp endtoend -scale 0.01 -seed 7
//	morpheusbench -exp fig8 -trace-out trace.json -metrics-out metrics.prom
//	morpheusbench -exp fig8 -parallel 8   # fan sweep points across 8 workers
//	morpheusbench -list                   # show the experiment index
//
// Experiments: table1, fig2, fig3, profile, fig8, fig9, fig10, traffic,
// endtoend, slowhost, multiprog, serialize, faults, cachesweep, serve,
// array, ablation, all.
//
// -ssd-cache enables the SSD-DRAM deserialized-object cache (an extension
// beyond the paper) in every experiment; -ssd-cache-mb sizes it. The
// cachesweep experiment manages the cache itself and ignores both flags'
// cache fields where it must.
//
// -batch-depth and -window-depth tune the batched submission front-end in
// every experiment: batch-depth MREAD commands are coalesced into one
// doorbell ring (1 = command-at-a-time) and up to window-depth commands
// stay in flight before the runtime reaps the oldest completions. The
// serve experiment (E16) sweeps both itself and overrides the flags. The
// per-command host submission cost lands in the host.submit.* metrics.
//
// The array experiment (E17) scales the testbed to a sharded fleet:
// -shards Morpheus-SSD systems behind consistent-hash placement with
// -replicas copies per object, serving an open-loop multi-tenant
// -arrival process (poisson, bursty, or diurnal, with an optional mean
// interarrival like "bursty:20us"). Left unset, E17 runs its default
// shards × replication × mix grid, ending with a whole-shard-loss point
// that proves degraded-mode replica re-fetches route to the shard
// actually holding the copy.
//
// -trace-out writes a Chrome trace-event JSON (load it at
// https://ui.perfetto.dev or chrome://tracing); -metrics-out writes the
// aggregated metrics registry, as Prometheus text by default or as JSON
// when the file name ends in .json.
//
// Trace events stream to the -trace-out file incrementally through an
// external-sort spool, so trace memory stays bounded on long runs and no
// event is dropped. -trace-sample enables tail sampling
// ("head=64,lat=10ms,pending=4096,keep=fallback|retry"): a
// deterministic head of events is kept plus every command tree that
// crossed the latency threshold, carried a keep-name marker, or hit a
// retry/timeout/fault/degraded path; everything else is discarded.
//
// -metrics-window enables windowed time-series collection (counters,
// latency quantiles, gauges per fixed virtual-time window);
// -timeseries-out writes the series as JSON (.json), CSV (.csv), or
// OpenMetrics text with timestamps (anything else). -slo declares a
// latency objective ("name=gold,metric=nvme.MREAD.latency_ps,
// target=2ms,budget=0.001") tracked per window; its burn rate and
// time in violation land in both artifacts. The name scopes the
// objective to one tenant (an application name, as in multiprog); ""
// or "*" applies everywhere. All of these artifacts are byte-identical
// at any -parallel setting.
//
// cmd/morpheuscheck compares two -metrics-out JSON artifacts under
// per-metric tolerances — the CI regression gate.
//
// -parallel sets the worker budget. An experiment's independent sweep
// points (one per application) fan out across it, and within one array
// (E17) point the shards' event engines run on whatever workers the
// budget has free, advancing in conservative time windows
// bounded by the replica-retry lookahead with cross-shard re-fetches
// exchanged serially at window barriers (see internal/array/parallel.go
// and DESIGN.md §7). Results — tables, -metrics-out, -timeseries-out,
// -trace-out — are byte-identical at every worker count: each point runs
// on an isolated system with private observation sinks, and the harness
// folds them back in point order (see internal/exp/parallel.go).
//
// -cpuprofile and -memprofile write standard pprof profiles of the whole
// run (`go tool pprof morpheusbench cpu.pprof`); the heap profile is
// taken after a final GC so it reflects live memory, and both compose
// with every experiment and flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"morpheus/internal/core"
	"morpheus/internal/exp"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// parsePS converts a Go duration string to picoseconds (the simulator's
// native unit).
func parsePS(s string) (int64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration %q must be positive", s)
	}
	return int64(d) * 1000, nil
}

// parseSamplePolicy parses the -trace-sample spec:
// "head=N,lat=DUR,pending=N,keep=name|name". Omitted fields keep their
// zero/default values; "keep=" (empty) disables name matching.
func parseSamplePolicy(s string) (trace.SamplePolicy, error) {
	var p trace.SamplePolicy
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return p, fmt.Errorf("trace-sample: malformed field %q (want key=value)", part)
		}
		switch kv[0] {
		case "head":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n < 0 {
				return p, fmt.Errorf("trace-sample: bad head %q", kv[1])
			}
			p.Head = n
		case "lat":
			ps, err := parsePS(kv[1])
			if err != nil {
				return p, fmt.Errorf("trace-sample: bad lat: %w", err)
			}
			p.Latency = units.Duration(ps)
		case "pending":
			n, err := strconv.Atoi(kv[1])
			if err != nil || n <= 0 {
				return p, fmt.Errorf("trace-sample: bad pending %q", kv[1])
			}
			p.MaxPending = n
		case "keep":
			if kv[1] == "" {
				p.KeepNames = []string{}
			} else {
				p.KeepNames = strings.Split(kv[1], "|")
			}
		default:
			return p, fmt.Errorf("trace-sample: unknown field %q", kv[0])
		}
	}
	if !p.Enabled() {
		return p, fmt.Errorf("trace-sample: %q enables nothing (set head, lat, or keep)", s)
	}
	return p, nil
}

// writeSeries dumps the windowed time series: JSON or CSV when the path
// says so, OpenMetrics text exposition (with window-end timestamps)
// otherwise.
func writeSeries(path string, reg *stats.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".json"):
		err = reg.WriteSeriesJSON(f)
	case strings.HasSuffix(path, ".csv"):
		err = reg.WriteSeriesCSV(f)
	default:
		err = reg.WriteSeriesOpenMetrics(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// writeMetrics dumps the aggregated registry: JSON when the path says so,
// Prometheus text exposition otherwise.
func writeMetrics(path string, reg *stats.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = reg.WriteJSON(f)
	} else {
		err = reg.WritePrometheus(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

type experiment struct {
	name  string
	paper string
	run   func(exp.Options) ([]*exp.Table, error)
}

// arraySweep carries the -shards/-replicas/-arrival selections into the
// array experiment; zero values run the E17 default grid.
var arraySweep exp.ArraySweep

func experiments() []experiment {
	one := func(f func(exp.Options) (*exp.Table, error)) func(exp.Options) ([]*exp.Table, error) {
		return func(o exp.Options) ([]*exp.Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return []*exp.Table{t}, nil
		}
	}
	return []experiment{
		{"table1", "Table I — benchmark applications and inputs", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunTable1(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"fig2", "Figure 2 — baseline execution-time breakdown", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunFig2(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"fig3", "Figure 3 — effective bandwidth vs storage device and CPU frequency", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunFig3(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"profile", "§II — parse-cost profile (conversion vs OS overhead)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunProfile(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"fig8", "Figure 8 — deserialization speedup with Morpheus-SSD", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunFig8(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"fig9", "Figure 9 — normalized power and energy", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunFig9(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"fig10", "Figure 10 — context switches", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunFig10(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"traffic", "§VII-A — PCIe and memory-bus traffic", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunTraffic(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"endtoend", "§VII-B — end-to-end speedups (incl. NVMe-P2P)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunEndToEnd(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"slowhost", "slower-server sensitivity (1.2 GHz host)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunSlowHost(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"multiprog", "multiprogrammed environment (E12, extension of §III)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunMultiprog(o, 0.5)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"serialize", "MWRITE serialization (E13, extension)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunSerialize(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"faults", "fault campaign — retries and degraded mode (E14, extension)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunFaults(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"cachesweep", "SSD object-cache sweep (E15, extension)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunCachesweep(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"serve", "batched submission sweep (E16, extension)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunServe(o)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"array", "sharded array serving sweep (E17, extension)", one(func(o exp.Options) (*exp.Table, error) {
			r, err := exp.RunArray(o, arraySweep)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		})},
		{"ablation", "design-choice ablations (DESIGN.md §4)", func(o exp.Options) ([]*exp.Table, error) {
			r, err := exp.RunAblation(o)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
	}
}

func main() {
	var (
		which       = flag.String("exp", "all", "experiment to run (or 'all')")
		scale       = flag.Float64("scale", 1.0/256, "input size as a fraction of the Table I sizes")
		seed        = flag.Int64("seed", 20160618, "workload generator seed")
		list        = flag.Bool("list", false, "list available experiments")
		format      = flag.String("format", "table", "output format: table or csv")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of every run to this file")
		metricsOut  = flag.String("metrics-out", "", "write aggregated metrics to this file (.json for JSON, else Prometheus text)")
		parallel    = flag.Int("parallel", 0, "worker budget shared by sweep points and array shards (0 = NumCPU, 1 = sequential); output is byte-identical at any setting")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile (taken after a final GC) to this file")
		ssdCache    = flag.Bool("ssd-cache", false, "enable the SSD-DRAM deserialized-object cache in every experiment (extension beyond the paper)")
		ssdCacheMB  = flag.Int("ssd-cache-mb", 0, "object-cache capacity in MiB (implies -ssd-cache; 0 = the 64MiB default)")
		batchDepth  = flag.Int("batch-depth", 0, "MREAD commands coalesced per doorbell ring in every experiment (1 = command-at-a-time; 0 = the config default)")
		windowDepth = flag.Int("window-depth", 0, "bound on in-flight MREAD commands in every experiment (0 = 2x batch depth)")

		shards   = flag.Int("shards", 0, "array experiment: number of Morpheus-SSD shards in the fleet (0 = the E17 default grid)")
		replicas = flag.Int("replicas", 0, "array experiment: distinct shards holding each object (0 = the E17 default grid)")
		arrival  = flag.String("arrival", "", "array experiment: arrival process poisson|bursty|diurnal with optional mean interarrival, e.g. bursty:20us (empty = the E17 default grid)")

		metricsWindow = flag.String("metrics-window", "", "windowed time-series bucket width as a Go duration (e.g. 100us); enables per-window counters, latency quantiles, and gauges")
		timeseriesOut = flag.String("timeseries-out", "", "write the windowed time series to this file (.json, .csv, else OpenMetrics text); requires -metrics-window")
		traceSample   = flag.String("trace-sample", "", "tail-sample the trace: head=N,lat=DUR,pending=N,keep=name|name (requires -trace-out)")
	)
	var slos []stats.SLOConfig
	flag.Func("slo", "latency objective name=...,metric=...,target=2ms,budget=0.001, tracked per window (repeatable; name \"\" or \"*\" = every run)", func(s string) error {
		c, err := stats.ParseSLO(s, parsePS)
		if err != nil {
			return err
		}
		slos = append(slos, c)
		return nil
	})
	flag.Parse()
	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("  %-10s %s\n", e.name, e.paper)
		}
		return
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "morpheusbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "morpheusbench: memprofile: %v\n", err)
			}
		}()
	}
	opts := exp.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.Parallel = *parallel
	if *ssdCache || *ssdCacheMB > 0 {
		mb := *ssdCacheMB
		opts.Mutate = func(cfg *core.SystemConfig) {
			cfg.SSD.ObjectCache = true
			if mb > 0 {
				cfg.SSD.ObjectCacheSize = units.Bytes(mb) * units.MiB
			}
		}
	}
	if *batchDepth != 0 || *windowDepth != 0 {
		prev := opts.Mutate
		b, w := *batchDepth, *windowDepth
		opts.Mutate = func(cfg *core.SystemConfig) {
			if prev != nil {
				prev(cfg)
			}
			if b != 0 {
				cfg.BatchDepth = b
			}
			if w != 0 {
				cfg.WindowDepth = w
			}
		}
	}
	if *metricsWindow != "" {
		ps, err := parsePS(*metricsWindow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: -metrics-window: %v\n", err)
			os.Exit(2)
		}
		opts.MetricsWindow = units.Duration(ps)
	}
	if *timeseriesOut != "" && opts.MetricsWindow == 0 {
		fmt.Fprintln(os.Stderr, "morpheusbench: -timeseries-out requires -metrics-window")
		os.Exit(2)
	}
	opts.SLOs = slos
	if *arrival != "" {
		if _, err := exp.ParseArrivalSpec(*arrival); err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: -arrival: %v\n", err)
			os.Exit(2)
		}
	}
	arraySweep = exp.ArraySweep{Shards: *shards, Replicas: *replicas, Arrival: *arrival}
	if *traceSample != "" && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "morpheusbench: -trace-sample requires -trace-out")
		os.Exit(2)
	}
	var stream *trace.ChromeStream
	var streamFile *os.File
	if *traceOut != "" {
		opts.Trace = trace.New(0)
		if *traceSample != "" {
			p, err := parseSamplePolicy(*traceSample)
			if err != nil {
				fmt.Fprintf(os.Stderr, "morpheusbench: %v\n", err)
				os.Exit(2)
			}
			opts.Trace.SetSamplePolicy(p)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: trace-out: %v\n", err)
			os.Exit(1)
		}
		streamFile = f
		stream = trace.NewChromeStream(f)
		opts.Trace.SetSink(stream)
	}
	if *metricsOut != "" || *timeseriesOut != "" {
		opts.Metrics = stats.NewRegistry()
	}

	run := func(e experiment) {
		fmt.Printf("running %s (%s)...\n", e.name, e.paper)
		tables, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *format == "csv" {
				t.WriteCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
	}
	if *which == "all" {
		for _, e := range exps {
			run(e)
		}
	} else {
		for _, name := range strings.Split(*which, ",") {
			found := false
			for _, e := range exps {
				if e.name == name {
					run(e)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "morpheusbench: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
		}
	}
	if *traceOut != "" {
		// Merge the spools into the final file.
		err := stream.Close()
		if cerr := streamFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: trace-out: %v\n", err)
			os.Exit(1)
		}
		if *traceSample != "" {
			fmt.Fprintf(os.Stderr, "morpheusbench: trace sampling kept %d of %d events (%d sampled out)\n",
				opts.Trace.Kept(), opts.Trace.Recorded(), opts.Trace.SampledOut())
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, opts.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: metrics-out: %v\n", err)
			os.Exit(1)
		}
	}
	if *timeseriesOut != "" {
		// An experiment that builds no system leaves the aggregate without
		// a window; give it one so the series is empty rather than missing.
		opts.Metrics.EnableSeries(int64(opts.MetricsWindow))
		if err := writeSeries(*timeseriesOut, opts.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "morpheusbench: timeseries-out: %v\n", err)
			os.Exit(1)
		}
	}
}
