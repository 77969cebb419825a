package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"morpheus/internal/apps"
	"morpheus/internal/array"
	"morpheus/internal/core"
	"morpheus/internal/exp"
	"morpheus/internal/flash"
	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// workload is one named set of inputs. run does one repetition's work on
// freshly built systems. Why each exists is recorded in BENCHMARK.json
// and README.md.
type workload struct {
	name string
	run  func(r *rep) error
}

var workloads = []workload{
	{"deser-suite", deserSuite},
	{"array-serve", arrayServe},
	{"array-degraded", arrayDegraded},
	{"cache-churn", cacheChurn},
}

// sizes fixes the work of one repetition. The program always runs
// defaultSizes; tests shrink it.
type sizes struct {
	deserScale float64 // fraction of the Table I input sizes

	shards, replicas, objects, tenants int
	objBytes                           units.Bytes
	rates                              []float64 // array-serve offered loads, req/s
	requests                           int       // array-serve requests per rate
	degradedRate                       float64
	degradedRequests                   int

	cacheFiles     int
	cacheFileBytes units.Bytes
	cacheBytes     units.Bytes
	cacheOps       int
}

var defaultSizes = sizes{
	deserScale: 1.0 / 128,

	shards: 8, replicas: 2, objects: 64, tenants: 2000,
	objBytes:         16 * units.KiB,
	rates:            []float64{25_000, 50_000, 100_000},
	requests:         4000,
	degradedRate:     25_000,
	degradedRequests: 6000,

	cacheFiles:     32,
	cacheFileBytes: 256 * units.KiB,
	cacheBytes:     4 * units.MiB,
	cacheOps:       2000,
}

// Device settings of the array and cache workloads, as E17 and E15 use
// them: an 8 KiB MDTS makes every 16 KiB request a multi-command MREAD
// train, and the cache workload's 16 KiB sample window keeps most of each
// 256 KiB stream past the never-cacheable sampled prefix.
const (
	arrayMDTS     = 8 * units.KiB
	cacheMDTS     = 32 * units.KiB
	cacheWindow   = 16 * units.KiB
	metricsWindow = 100 * units.Microsecond
	// headlineRate is the offered load, in req/s, whose latency and SLO
	// misses array-serve reports: the admission knee.
	headlineRate = 50_000
	// sloMissLimit is the largest slo_miss_frac max_rate_kreq_s accepts.
	sloMissLimit = 0.01
)

func grepApp() *apps.App {
	app, err := apps.ByName("grep")
	if err != nil {
		panic(err) // the suite always has grep
	}
	return app
}

// build times core.NewSystem for one system with the §VI-A configuration,
// adjusted by mutate.
func (r *rep) build(gpu bool, mutate func(*core.SystemConfig)) (*core.System, error) {
	cfg := core.DefaultSystemConfig()
	cfg.WithGPU = gpu
	if mutate != nil {
		mutate(&cfg)
	}
	var sys *core.System
	err := r.timed(setupPhase, "core.build", func() (err error) {
		sys, err = core.NewSystem(cfg)
		return err
	})
	return sys, err
}

// stage writes the shards onto sys and resets its timers, so the measured
// run starts from clean ledgers.
func (r *rep) stage(sys *core.System, prefix string, shards [][]byte) ([]*core.File, error) {
	files := make([]*core.File, len(shards))
	err := r.timed(setupPhase, "core.stage", func() error {
		for i, sh := range shards {
			f, err := sys.WriteFile(fmt.Sprintf("%s/%d", prefix, i), sh)
			if err != nil {
				return err
			}
			files[i] = f
		}
		sys.ResetTimers()
		return nil
	})
	return files, err
}

// deserSuite runs every application once per mode, each on its own
// freshly staged system, and checks the Morpheus objects against the
// baseline's.
func deserSuite(r *rep) error {
	var deser, total []float64
	for _, app := range apps.All() {
		var shards [][]byte
		target := units.Bytes(float64(app.PaperInputSize) * r.sz.deserScale)
		r.timed(setupPhase, "workload.gen", func() error {
			shards = app.Gen(target, app.Threads, r.seed)
			return nil
		})
		var reports [2]*apps.Report
		for i, mode := range []apps.Mode{apps.ModeBaseline, apps.ModeMorpheus} {
			sys, err := r.build(app.UsesGPU, nil)
			if err != nil {
				return err
			}
			files, err := r.stage(sys, app.Name, shards)
			if err != nil {
				return err
			}
			r.ops++
			err = r.timed(runPhase, "apps.run."+mode.String(), func() (err error) {
				reports[i], err = apps.Run(sys, app, files, mode)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s %s: %w", app.Name, mode, err)
			}
			r.collect(sys)
			r.inBytes += int64(reports[i].RawBytes)
		}
		base, morph := reports[0], reports[1]
		if err := apps.VerifyObjects(base, morph); err != nil {
			return fmt.Errorf("%s: Morpheus objects differ from the baseline's: %w", app.Name, err)
		}
		deser = append(deser, float64(base.Deser)/float64(morph.Deser))
		total = append(total, float64(base.Total)/float64(morph.Total))
		r.cyclesPerB = append(r.cyclesPerB, morph.CyclesPerByte)
	}
	r.e2e["failed_frac"] = 0 // any failed run aborts the workload
	r.e2e["deser_speedup"] = mean(deser)
	r.e2e["app_speedup"] = mean(total)
	return nil
}

// fleet builds the E17 fleet, generates and stages the grep objects on
// their holders and resets every shard's timers. observe, if set, sees
// each shard's system as it is built.
func (r *rep) fleet(observe func(shard int, sys *core.System)) (*array.Array, error) {
	var a *array.Array
	err := r.timed(setupPhase, "core.build", func() (err error) {
		a, err = array.New(array.Config{Shards: r.sz.shards, Replicas: r.sz.replicas}, func(shard int) (*core.System, error) {
			cfg := core.DefaultSystemConfig()
			cfg.WithGPU = false
			cfg.SSD.MDTS = arrayMDTS
			sys, err := core.NewSystem(cfg)
			if err == nil && observe != nil {
				observe(shard, sys)
			}
			return sys, err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	app := grepApp()
	objects := make([][]byte, r.sz.objects)
	r.timed(setupPhase, "workload.gen", func() error {
		for i := range objects {
			objects[i] = app.Gen(r.sz.objBytes, 1, r.seed+int64(i)*9176)[0]
		}
		return nil
	})
	err = r.timed(setupPhase, "core.stage", func() error {
		for i, data := range objects {
			if err := a.StageObject(array.ObjectName(i), data); err != nil {
				return err
			}
		}
		a.ResetTimers()
		return nil
	})
	return a, err
}

// serve runs one open-loop Poisson stream of requests at rate req/s
// through the shard-parallel executor. Arrival times are precomputed in
// simulated time and each latency counts from the scheduled arrival, so
// no host-side generator can run late.
func (r *rep) serve(a *array.Array, rate float64, requests int) (*array.TrafficResult, error) {
	app := grepApp()
	tc := array.TrafficConfig{
		Tenants:  r.sz.tenants,
		Requests: requests,
		Objects:  r.sz.objects,
		Mean:     units.Duration(float64(units.Second) / rate),
		Mix:      array.MixPoisson,
		Seed:     r.seed,
		App:      app.StorageApp(),
		Parser:   app.HostParser,
		Spec:     app.Spec,
		Classes:  array.DefaultClasses(),
	}
	var tr *array.TrafficResult
	err := r.timed(runPhase, "array.traffic", func() (err error) {
		tr, err = array.RunTrafficParallel(a, tc, min(runtime.NumCPU(), 8))
		return err
	})
	if err != nil {
		return nil, err
	}
	r.ops += int64(tr.Arrivals)
	r.failed += int64(tr.Errors)
	served := tr.Path[core.PathMorpheus] + tr.Path[core.PathHostFallback] + tr.Path[core.PathReplicaFallback]
	r.inBytes += int64(served) * int64(r.sz.objBytes)
	r.collectTraffic(tr)
	return tr, nil
}

// sloMissFrac is the share of arrivals that missed their class target,
// were refused by admission control, or could not be served.
func sloMissFrac(tr *array.TrafficResult) float64 {
	miss := tr.Rejected + tr.Errors
	for _, c := range tr.Classes {
		miss += c.Violations
	}
	return ratio(int64(miss), int64(tr.Arrivals))
}

// meanLatencyMS is the exact mean request latency over the fleet.
func meanLatencyMS(a *array.Array) float64 {
	var h stats.Histogram
	for _, sh := range a.Shards {
		h.Merge(sh.Sys.Metrics.Histogram("array.request.latency_ps"))
	}
	return h.Mean() / float64(units.Millisecond)
}

// arrayServe offers three fixed rates to one healthy fleet, resetting its
// timers between rates: under the admission knee, at it, and past it.
func arrayServe(r *rep) error {
	a, err := r.fleet(nil)
	if err != nil {
		return err
	}
	var arrivals, refused int
	for i, rate := range r.sz.rates {
		if i > 0 {
			r.timed(setupPhase, "array.reset", func() error {
				a.ResetTimers()
				return nil
			})
		}
		tr, err := r.serve(a, rate, r.sz.requests)
		if err != nil {
			return fmt.Errorf("%.0f req/s: %w", rate, err)
		}
		for _, sh := range a.Shards {
			r.collect(sh.Sys)
		}
		arrivals += tr.Arrivals
		refused += tr.Rejected + tr.Errors
		miss := sloMissFrac(tr)
		if rate == headlineRate {
			r.e2e["mean_ms"] = meanLatencyMS(a)
			r.e2e["slo_miss_frac"] = miss
		}
		if miss <= sloMissLimit && rate/1000 > r.e2e["max_rate_kreq_s"] {
			r.e2e["max_rate_kreq_s"] = rate / 1000
		}
	}
	r.e2e["failed_frac"] = ratio(int64(refused), int64(arrivals))
	return nil
}

// busiestPrimary is the shard that is primary for the most objects
// (lowest ID on ties): the loss that leaves the most degraded traffic.
func busiestPrimary(a *array.Array, objects int) int {
	counts := make([]int, len(a.Shards))
	for i := 0; i < objects; i++ {
		counts[a.Place(array.ObjectName(i))[0]]++
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

// arrayDegraded kills the busiest primary, injects ECC read-retries on
// the survivors, and serves traffic with windowed metrics, per-class SLOs
// and a tail-sampled streamed trace, exporting all three inside the
// measured phase.
func arrayDegraded(r *rep) error {
	classes := array.DefaultClasses()
	a, err := r.fleet(func(shard int, sys *core.System) {
		sys.Metrics.EnableSeries(int64(metricsWindow))
		for _, cl := range classes {
			sys.Metrics.AddSLO(stats.SLOConfig{
				Name:     exp.TenantID(cl.Name, shard),
				Metric:   "array.request.latency_ps." + cl.Name,
				TargetPS: cl.TargetPS,
				Budget:   cl.Budget,
			})
		}
	})
	if err != nil {
		return err
	}
	var (
		kill      int
		tracer    *trace.Tracer
		stream    *trace.ChromeStream
		traceFile *os.File
	)
	err = r.timed(setupPhase, "flash.faults", func() (err error) {
		kill = busiestPrimary(a, r.sz.objects)
		a.KillShard(kill)
		for _, sh := range a.Shards {
			if sh.ID != kill {
				sh.Sys.SSD.Flash.SetFaultModel(flash.FaultModel{CorrectablePerM: 200_000, Seed: uint64(r.seed) + uint64(sh.ID)})
			}
		}
		if traceFile, err = os.Create(filepath.Join(r.tmp, "degraded.trace.json")); err != nil {
			return err
		}
		tracer = trace.New(0)
		tracer.SetSamplePolicy(trace.SamplePolicy{Head: 256, Latency: units.Duration(classes[0].TargetPS)})
		stream = trace.NewChromeStream(traceFile)
		tracer.SetSink(stream)
		a.AttachTracer(tracer)
		return nil
	})
	if err != nil {
		return err
	}
	defer traceFile.Close()
	tr, err := r.serve(a, r.sz.degradedRate, r.sz.degradedRequests)
	if err != nil {
		return err
	}
	if tr.Path[core.PathReplicaFallback] == 0 {
		return fmt.Errorf("shard %d is down with %d arrivals but no request was served by a replica re-fetch",
			kill, tr.ShardArrivals[kill])
	}
	err = r.timed(runPhase, "stats.export", func() error {
		reg := stats.NewRegistry()
		reg.EnableSeries(int64(metricsWindow))
		for _, sh := range a.Shards {
			reg.Merge(sh.Sys.Metrics)
		}
		if err := writeFile(filepath.Join(r.tmp, "degraded.series.json"), reg.WriteSeriesJSON); err != nil {
			return err
		}
		return writeFile(filepath.Join(r.tmp, "degraded.metrics.json"), reg.WriteJSON)
	})
	if err != nil {
		return err
	}
	err = r.timed(runPhase, "trace.flush", func() error {
		if err := stream.Close(); err != nil {
			return err
		}
		return traceFile.Close()
	})
	if err != nil {
		return err
	}
	for _, sh := range a.Shards {
		r.collect(sh.Sys)
	}
	r.traceRecorded, r.traceKept = tracer.Recorded(), tracer.Kept()
	r.e2e["failed_frac"] = ratio(int64(tr.Rejected+tr.Errors), int64(tr.Arrivals))
	r.e2e["mean_ms"] = meanLatencyMS(a)
	r.e2e["slo_miss_frac"] = sloMissFrac(tr)
	r.e2e["gold_burn"] = tr.Classes[0].Burn()
	return nil
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(w io.Writer) error) error {
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

// cacheChurn drives one closed-loop client against a cache-enabled
// system: Zipf-picked reads of a working set twice the cache, every 8th
// operation an invalidating same-bytes WRITE. The cache starts empty.
func cacheChurn(r *rep) error {
	app := grepApp()
	sys, err := r.build(false, func(cfg *core.SystemConfig) {
		cfg.SSD.ObjectCache = true
		cfg.SSD.ObjectCacheSize = r.sz.cacheBytes
		cfg.SSD.MDTS = cacheMDTS
		cfg.SSD.SampleWindow = cacheWindow
	})
	if err != nil {
		return err
	}
	data := make([][]byte, r.sz.cacheFiles)
	r.timed(setupPhase, "workload.gen", func() error {
		for i := range data {
			data[i] = app.Gen(r.sz.cacheFileBytes, 1, r.seed+int64(i)*7919)[0]
		}
		return nil
	})
	files, err := r.stage(sys, "churn", data)
	if err != nil {
		return err
	}
	want := make([][]byte, len(data))
	r.timed(setupPhase, "serial.reference", func() error {
		for i, d := range data {
			want[i] = app.HostParser()(d, true)
		}
		return nil
	})

	storage := app.StorageApp()
	picks := rand.NewZipf(rand.New(rand.NewSource(r.seed)), 1.1, 1, uint64(len(files)-1))
	var now units.Time
	var lats []int64
	var readBytes int64
	for op := 1; op <= r.sz.cacheOps; op++ {
		i := int(picks.Uint64())
		f := files[i]
		r.ops++
		if op%8 == 0 {
			err := r.timed(runPhase, "core.write", func() error {
				addr, t, err := sys.Host.AllocDMA(now, units.Bytes(f.NLB)*nvme.LBASize)
				if err != nil {
					return err
				}
				comp, t, err := sys.Driver.Submit(t, &ssd.CmdContext{
					Cmd:  nvme.BuildWrite(0, f.SLBA, f.NLB, uint64(addr)),
					Data: data[i],
				})
				if err != nil {
					return err
				}
				sys.Host.FreeDMA(addr)
				now = t
				return comp.Status.Err()
			})
			if err != nil {
				return fmt.Errorf("operation %d: write %s: %w", op, f.Name, err)
			}
			continue
		}
		var res *core.InvokeResult
		err := r.timed(runPhase, "core.invoke", func() (err error) {
			res, err = sys.InvokeStorageApp(now, core.InvokeOptions{App: storage, File: f})
			return err
		})
		if err != nil {
			return fmt.Errorf("operation %d: read %s: %w", op, f.Name, err)
		}
		if !bytes.Equal(res.Out, want[i]) {
			return fmt.Errorf("operation %d: read %s returned objects that differ from the host parser's", op, f.Name)
		}
		lats = append(lats, int64(res.Done.Sub(now)))
		now = res.Done
		readBytes += int64(f.Size)
	}
	r.collect(sys)
	r.inBytes += readBytes
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, l := range lats {
		sum += l
	}
	ms := float64(units.Millisecond)
	r.e2e["failed_frac"] = 0 // any failed operation aborts the workload
	r.e2e["mean_ms"] = ratio(float64(sum), float64(len(lats))) / ms
	r.e2e["p50_ms"] = float64(nearestRank(lats, 50)) / ms
	r.e2e["p99_ms"] = float64(nearestRank(lats, 99)) / ms
	r.e2e["sim_mb_s"] = ratio(float64(readBytes)/1e6, float64(now)/float64(units.Second))
	return nil
}
