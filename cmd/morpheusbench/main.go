// Command morpheusbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	morpheusbench -exp all                 # everything
//	morpheusbench -exp apps               # Figures 2, 8, 9, 10 and §VII-A/B
//	morpheusbench -exp apps -scale 0.01 -seed 7
//	morpheusbench -exp apps -trace-out trace.json -metrics-out metrics.json
//	morpheusbench -exp apps -parallel 8   # fan sweep points across 8 workers
//	morpheusbench -list                   # show the experiment index
//
// -exp takes one experiment name, a comma-separated list, or all; the
// names and their order come from exp.Experiments.
//
// -ssd-cache-mb N (N > 0) enables an N MiB SSD-DRAM deserialized-object
// cache (an extension beyond the paper) in every experiment. The
// cachesweep experiment manages the cache itself and overrides the flag's
// cache fields where it must.
//
// -batch-depth tunes the batched submission front-end in every
// experiment: that many MREAD commands are coalesced into one doorbell
// ring (1 = command-at-a-time), and up to twice as many stay in flight
// before the runtime reaps the oldest completions. The serve experiment
// (E16) sweeps batch and window depth itself and overrides the flag. The
// per-command host submission cost lands in the host.submit.* metrics.
//
// A malformed value — -scale <= 0, a negative -parallel, -batch-depth,
// -ssd-cache-mb, -shards or -replicas, a -format other than table or csv,
// a -metrics-out or -timeseries-out name not ending in .json — exits with
// status 2 and a message naming the flag instead of falling back to a
// default. A rejected command line runs no experiment and creates no file.
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
// aggregated metrics registry as JSON.
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
// -timeseries-out writes the series as JSON. -slo declares a
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
// (E17) point the shards run on whatever workers the budget has free,
// each system serving its requests and replica re-fetches in global
// sequence order (see internal/array/parallel.go and DESIGN.md §7).
// Results — tables, -metrics-out, -timeseries-out,
// -trace-out — are byte-identical at every worker count: each point runs
// on an isolated system with private observation sinks, and the harness
// folds them back in point order (see internal/exp/parallel.go).
//
// -cpuprofile and -memprofile write standard pprof profiles of the whole
// run (`go tool pprof morpheusbench cpu.pprof`); the heap profile is
// taken after a final GC at the end of a successful run, so it reflects
// live memory. Both compose with every experiment and flag, and a profile
// that cannot be written exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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

// writeFile creates path, fills it with write and closes it, returning
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// writeHeapProfile writes a pprof heap profile, taken after a final GC so
// it reflects live memory.
func writeHeapProfile(w io.Writer) error {
	runtime.GC()
	return pprof.WriteHeapProfile(w)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit status: 0 on
// success, 1 when an experiment or an output file fails, 2 for a bad
// command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("morpheusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which      = fs.String("exp", "all", "experiment to run (or 'all')")
		scale      = fs.Float64("scale", 1.0/256, "input size as a fraction of the Table I sizes (> 0)")
		seed       = fs.Int64("seed", 20160618, "workload generator seed")
		list       = fs.Bool("list", false, "list available experiments")
		format     = fs.String("format", "table", "output format: table or csv")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace-event JSON of every run to this file")
		metricsOut = fs.String("metrics-out", "", "write aggregated metrics as JSON to this file (name must end in .json)")
		parallel   = fs.Int("parallel", 0, "worker budget shared by sweep points and array shards (0 = NumCPU, 1 = sequential); output is byte-identical at any setting")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (taken after a final GC) to this file")
		ssdCacheMB = fs.Int("ssd-cache-mb", 0, "enable an SSD-DRAM deserialized-object cache of this many MiB in every experiment (extension beyond the paper; 0 = no cache)")
		batchDepth = fs.Int("batch-depth", 0, "MREAD commands coalesced per doorbell ring in every experiment, with twice as many in flight (1 = command-at-a-time; 0 = the config default)")

		shards   = fs.Int("shards", 0, "array experiment: number of Morpheus-SSD shards in the fleet (0 = the E17 default grid)")
		replicas = fs.Int("replicas", 0, "array experiment: distinct shards holding each object (0 = the E17 default grid)")
		arrival  = fs.String("arrival", "", "array experiment: arrival process poisson|bursty|diurnal with optional mean interarrival, e.g. bursty:20us (empty = the E17 default grid)")

		metricsWindow = fs.String("metrics-window", "", "windowed time-series bucket width as a Go duration (e.g. 100us); enables per-window counters, latency quantiles, and gauges")
		timeseriesOut = fs.String("timeseries-out", "", "write the windowed time series as JSON to this file (name must end in .json); requires -metrics-window")
		traceSample   = fs.String("trace-sample", "", "tail-sample the trace: head=N,lat=DUR,pending=N,keep=name|name (requires -trace-out)")
	)
	var slos []stats.SLOConfig
	fs.Func("slo", "latency objective name=...,metric=...,target=2ms,budget=0.001, tracked per window (repeatable; name \"\" or \"*\" = every run)", func(s string) error {
		c, err := stats.ParseSLO(s, parsePS)
		if err != nil {
			return err
		}
		slos = append(slos, c)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "morpheusbench: "+format+"\n", args...)
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "morpheusbench: "+format+"\n", args...)
		return 1
	}
	switch {
	case !(*scale > 0):
		return usage("-scale must be > 0, got %v", *scale)
	case *parallel < 0:
		return usage("-parallel must be >= 0 (0 = NumCPU), got %d", *parallel)
	case *batchDepth < 0:
		return usage("-batch-depth must be >= 0 (0 = the config default), got %d", *batchDepth)
	case *ssdCacheMB < 0:
		return usage("-ssd-cache-mb must be >= 0 (0 = no cache), got %d", *ssdCacheMB)
	case *format != "table" && *format != "csv":
		return usage("-format must be table or csv, got %q", *format)
	case *shards < 0:
		return usage("-shards must be >= 0 (0 = the E17 default grid), got %d", *shards)
	case *replicas < 0:
		return usage("-replicas must be >= 0 (0 = the E17 default grid), got %d", *replicas)
	case *metricsOut != "" && !strings.HasSuffix(*metricsOut, ".json"):
		return usage("-metrics-out writes JSON; the file name must end in .json, got %q", *metricsOut)
	case *timeseriesOut != "" && !strings.HasSuffix(*timeseriesOut, ".json"):
		return usage("-timeseries-out writes JSON; the file name must end in .json, got %q", *timeseriesOut)
	}
	exps := exp.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.Name, e.Title)
		}
		return 0
	}
	var selected []exp.Experiment
	if *which == "all" {
		selected = exps
	} else {
		for _, name := range strings.Split(*which, ",") {
			i := slices.IndexFunc(exps, func(e exp.Experiment) bool { return e.Name == name })
			if i < 0 {
				return usage("unknown experiment %q (use -list)", name)
			}
			selected = append(selected, exps[i])
		}
	}
	opts := exp.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.Parallel = *parallel
	if mb, batch := *ssdCacheMB, *batchDepth; mb > 0 || batch > 0 {
		opts.Mutate = func(cfg *core.SystemConfig) {
			if mb > 0 {
				cfg.SSD.ObjectCache = true
				cfg.SSD.ObjectCacheSize = units.Bytes(mb) * units.MiB
			}
			if batch > 0 {
				cfg.BatchDepth = batch
			}
		}
	}
	if *metricsWindow != "" {
		ps, err := parsePS(*metricsWindow)
		if err != nil {
			return usage("-metrics-window: %v", err)
		}
		opts.MetricsWindow = units.Duration(ps)
	}
	if *timeseriesOut != "" && opts.MetricsWindow == 0 {
		return usage("-timeseries-out requires -metrics-window")
	}
	opts.SLOs = slos
	if *arrival != "" {
		if _, err := exp.ParseArrivalSpec(*arrival); err != nil {
			return usage("-arrival: %v", err)
		}
	}
	opts.Array = exp.ArraySweep{Shards: *shards, Replicas: *replicas, Arrival: *arrival}
	var policy trace.SamplePolicy
	if *traceSample != "" {
		if *traceOut == "" {
			return usage("-trace-sample requires -trace-out")
		}
		var err error
		if policy, err = parseSamplePolicy(*traceSample); err != nil {
			return usage("%v", err)
		}
	}

	// The command line is valid: only now create output files.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile: %v", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var stream *trace.ChromeStream
	var streamFile *os.File
	if *traceOut != "" {
		opts.Trace = trace.New(0)
		opts.Trace.SetSamplePolicy(policy) // the zero policy keeps every event
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail("trace-out: %v", err)
		}
		streamFile = f
		stream = trace.NewChromeStream(f)
		opts.Trace.SetSink(stream)
	}
	if *metricsOut != "" || *timeseriesOut != "" {
		opts.Metrics = stats.NewRegistry()
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "running %s (%s)...\n", e.Name, e.Title)
		tables, err := e.Run(opts)
		if err != nil {
			return fail("%s: %v", e.Name, err)
		}
		for _, t := range tables {
			if *format == "csv" {
				t.WriteCSV(stdout)
			} else {
				t.Render(stdout)
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
			return fail("trace-out: %v", err)
		}
		if *traceSample != "" {
			fmt.Fprintf(stderr, "morpheusbench: trace sampling kept %d of %d events (%d sampled out)\n",
				opts.Trace.Kept(), opts.Trace.Recorded(), opts.Trace.SampledOut())
		}
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, opts.Metrics.WriteJSON); err != nil {
			return fail("metrics-out: %v", err)
		}
	}
	if *timeseriesOut != "" {
		// An experiment that builds no system leaves the aggregate without
		// a window; give it one so the series is empty rather than missing.
		opts.Metrics.EnableSeries(int64(opts.MetricsWindow))
		if err := writeFile(*timeseriesOut, opts.Metrics.WriteSeriesJSON); err != nil {
			return fail("timeseries-out: %v", err)
		}
	}
	if *memProfile != "" {
		if err := writeFile(*memProfile, writeHeapProfile); err != nil {
			return fail("memprofile: %v", err)
		}
	}
	return 0
}
