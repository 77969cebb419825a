package exp

import (
	"fmt"

	"morpheus/internal/apps"
	"morpheus/internal/array"
	"morpheus/internal/core"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// The array experiment (EXPERIMENTS.md §E17). This is an extrapolation
// beyond the paper: Morpheus evaluates one SSD, but its serving story —
// objects created on the device, read back as MREAD trains — naturally
// scales to a fleet of Morpheus-SSDs behind consistent-hash placement.
// The sweep stands up N simulated systems (one core.System per shard)
// with k-way replication, drives an open-loop multi-tenant arrival
// process through each object's primary shard, and reports per-tenant
// QoS as a first-class outcome: admission under slot exhaustion,
// per-class SLO burn, and Jain fairness across tenants and shards.
// One grid point kills a whole shard mid-layout, proving the two-stage
// degraded mode re-fetches replicas from the shard actually holding
// them (core.ReplicaFetcher) rather than silently falling back locally.

// Bench-scale defaults for the offered load. Tenants is deliberately
// large (thousands, Zipf-picked) so the population dwarfs the request
// count and fairness is computed over the tenants that actually arrived.
const (
	arrayTenants  = 2000
	arrayRequests = 320
	arrayObjects  = 24
	arrayMeanGap  = 40 * units.Microsecond
)

// arrayMDTS narrows the command split like E15/E16 do: bench-scale
// objects with the paper-default 128 KiB MDTS collapse to one-command
// trains; 8 KiB keeps every request a multi-command MREAD train.
const arrayMDTS = 8 * units.KiB

// arrayObjBytes is the unscaled per-object size (Options.Scale shrinks
// it like every other experiment input).
const arrayObjBytes = 4 * units.MiB

// arrayApp is the served workload: a CPU-side deserialization app, so
// the sweep measures the serving path without GPU noise.
const arrayApp = "grep"

// ArraySweep selects the grid. The zero value runs the default sweep
// (shards × replication × arrival mix plus a whole-shard-loss point);
// setting any of Shards/Replicas/Arrival narrows it to that single
// configuration, run healthy and with one shard lost.
type ArraySweep struct {
	Shards   int    // 0 = default grid
	Replicas int    // 0 = default grid
	Arrival  string // "" = default grid; else "mix[:mean]" (ParseArrivalSpec)

	// Load overrides, mainly for tests; 0 = the bench defaults above.
	Tenants  int
	Requests int
	Objects  int
}

// arrayPoint is one grid point.
type arrayPoint struct {
	shards   int
	replicas int
	mix      array.Mix
	mean     units.Duration // 0 = arrayMeanGap
	loss     bool           // kill the busiest primary before traffic
}

// arrayGrid expands the sweep selector into grid points.
func arrayGrid(sw ArraySweep) ([]arrayPoint, error) {
	if sw.Shards < 0 || sw.Replicas < 0 {
		return nil, fmt.Errorf("exp: array shards/replicas must be >= 0 (0 = default), got %d/%d", sw.Shards, sw.Replicas)
	}
	if sw.Shards == 0 && sw.Replicas == 0 && sw.Arrival == "" {
		return []arrayPoint{
			{shards: 2, replicas: 1, mix: array.MixPoisson},
			{shards: 4, replicas: 2, mix: array.MixPoisson},
			{shards: 4, replicas: 2, mix: array.MixBursty},
			{shards: 4, replicas: 3, mix: array.MixDiurnal},
			{shards: 4, replicas: 2, mix: array.MixPoisson, loss: true},
		}, nil
	}
	pt := arrayPoint{shards: sw.Shards, replicas: sw.Replicas}
	if pt.shards == 0 {
		pt.shards = 4
	}
	if pt.replicas == 0 {
		pt.replicas = 2
	}
	if sw.Arrival != "" {
		spec, err := ParseArrivalSpec(sw.Arrival)
		if err != nil {
			return nil, err
		}
		pt.mix, pt.mean = spec.Mix, spec.Mean
	}
	lossPt := pt
	lossPt.loss = true
	return []arrayPoint{pt, lossPt}, nil
}

// ArrayRow is one grid point's outcome.
type ArrayRow struct {
	Shards   int
	Replicas int
	Mix      array.Mix
	Loss     bool

	Arrivals int
	Admitted int
	Rejected int
	Errors   int
	// Path counts served requests by core.ServePath.
	Path [3]int
	// RemoteReads counts replica re-fetches served by remote shards
	// (array.replica.remote_reads across the fleet).
	RemoteReads int64

	P99      units.Duration // all requests
	GoldP99  units.Duration // gold class only
	GoldBurn float64        // gold error-budget burn rate

	FairTenants float64
	FairShards  float64
	SlotsUtil   float64 // mean sampled shard-slot utilization
}

// ArrayResult is the whole sweep.
type ArrayResult struct {
	Rows []ArrayRow
}

// arrayShardSLOs derives one shard's SLO set: caller wildcards pass
// through (buildSystem names them "all"), caller configs naming a QoS
// class bind shard-qualified so their keys stay unique across shards
// (the bindSLOs rule), and classes left unnamed get their default
// objective on the per-class latency metric.
func arrayShardSLOs(user []stats.SLOConfig, shard int, classes []array.Class) []stats.SLOConfig {
	var out []stats.SLOConfig
	named := map[string]bool{}
	for _, c := range user {
		if c.Name == "" || c.Name == "*" {
			out = append(out, c)
			continue
		}
		for _, cl := range classes {
			if c.Name == cl.Name {
				named[cl.Name] = true
				c.Name = TenantID(cl.Name, shard)
				if c.Metric == "" {
					c.Metric = "array.request.latency_ps." + cl.Name
				}
				out = append(out, c)
				break
			}
		}
	}
	for _, cl := range classes {
		if named[cl.Name] {
			continue
		}
		out = append(out, stats.SLOConfig{
			Name:     TenantID(cl.Name, shard),
			Metric:   "array.request.latency_ps." + cl.Name,
			TargetPS: cl.TargetPS,
			Budget:   cl.Budget,
		})
	}
	return out
}

// arrayPrimaryArgmax returns the shard that is primary for the most
// staged objects (lowest ID on ties) — the most damaging single-shard
// loss, and the one guaranteed to leave degraded traffic behind.
func arrayPrimaryArgmax(a *array.Array, objects int) int {
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

// arrayPointRun builds one fleet, stages the object set, optionally
// kills the busiest primary, runs the traffic engine, and folds the
// shard registries (in shard order — the permutation-invariance the
// stats merge semantics guarantee is tested, not relied on) into the
// point's aggregate.
func arrayPointRun(po Options, pt arrayPoint, app *apps.App, tenants, requests, objects int) (ArrayRow, error) {
	classes := array.DefaultClasses()
	callerMutate := po.Mutate
	mutate := func(cfg *core.SystemConfig) {
		if callerMutate != nil {
			callerMutate(cfg)
		}
		cfg.SSD.MDTS = arrayMDTS
	}
	a, err := array.New(array.Config{Shards: pt.shards, Replicas: pt.replicas}, func(shard int) (*core.System, error) {
		so := po
		so.Mutate = mutate
		so.SLOs = arrayShardSLOs(po.SLOs, shard, classes)
		return buildSystem(so, false)
	})
	if err != nil {
		return ArrayRow{}, err
	}

	objBytes := units.Bytes(float64(arrayObjBytes) * po.scale())
	if objBytes < 4*units.KiB {
		objBytes = 4 * units.KiB
	}
	for i := 0; i < objects; i++ {
		data := app.Gen(objBytes, 1, po.Seed+int64(i)*9176)
		if err := a.StageObject(array.ObjectName(i), data[0]); err != nil {
			return ArrayRow{}, err
		}
	}
	a.ResetTimers()
	if po.Trace != nil {
		a.AttachTracer(po.Trace)
	}
	kill := -1
	if pt.loss {
		kill = arrayPrimaryArgmax(a, objects)
		a.KillShard(kill)
	}

	mean := pt.mean
	if mean <= 0 {
		mean = arrayMeanGap
	}
	tc := array.TrafficConfig{
		Tenants:  tenants,
		Requests: requests,
		Objects:  objects,
		Mean:     mean,
		Mix:      pt.mix,
		Seed:     po.Seed,
		App:      app.StorageApp(),
		Parser:   app.HostParser,
		Spec:     app.Spec,
		Classes:  classes,
	}
	// The point's own token (held by runPoints) funds one shard worker;
	// extra slots are scavenged best-effort from the shared budget. Slot
	// counts never change bytes, so starvation costs wall-clock only.
	extras := po.budget.TryAcquire(pt.shards - 1)
	defer po.budget.Release(extras)
	tr, err := array.RunTrafficParallel(a, tc, 1+extras)
	if err != nil {
		return ArrayRow{}, err
	}
	if pt.loss && tr.ShardArrivals[kill] > 0 && tr.Path[core.PathReplicaFallback] == 0 {
		return ArrayRow{}, fmt.Errorf("exp: array loss point (shard %d down, %d arrivals) served no replica re-fetches",
			kill, tr.ShardArrivals[kill])
	}

	pointReg := stats.NewRegistry()
	if po.MetricsWindow > 0 {
		pointReg.EnableSeries(int64(po.MetricsWindow))
	}
	for _, sh := range a.Shards {
		pointReg.Merge(sh.Sys.Metrics)
	}
	if po.Metrics != nil {
		po.Metrics.Merge(pointReg)
	}

	row := ArrayRow{
		Shards:      pt.shards,
		Replicas:    pt.replicas,
		Mix:         pt.mix,
		Loss:        pt.loss,
		Arrivals:    tr.Arrivals,
		Admitted:    tr.Admitted,
		Rejected:    tr.Rejected,
		Errors:      tr.Errors,
		Path:        tr.Path,
		RemoteReads: pointReg.Counters().Get("array.replica.remote_reads"),
		P99:         units.Duration(pointReg.Histogram("array.request.latency_ps").Quantile(0.99)),
		GoldP99:     units.Duration(pointReg.Histogram("array.request.latency_ps.gold").Quantile(0.99)),
		GoldBurn:    tr.Classes[0].Burn(),
		FairTenants: tr.FairnessTenants,
		FairShards:  tr.FairnessShards,
		// Shards share one virtual clock, so the merged gauge's integral
		// is the sum of per-shard utilizations over one span — normalize
		// by the shard count to report the per-shard mean.
		SlotsUtil: pointReg.Gauge("array.shard.slots_util").Mean() / float64(pt.shards),
	}
	return row, nil
}

// RunArray runs the o.Array sweep. Points are independent fleets and fan
// out across the worker pool, and each point's shards run on whatever
// slots of the same pool are free; output is byte-identical at any
// -parallel setting.
func RunArray(o Options) (*ArrayResult, error) {
	sw := o.Array
	grid, err := arrayGrid(sw)
	if err != nil {
		return nil, err
	}
	if sw.Tenants < 0 || sw.Requests < 0 || sw.Objects < 0 {
		return nil, fmt.Errorf("exp: array tenants/requests/objects must be >= 0 (0 = default), got %d/%d/%d",
			sw.Tenants, sw.Requests, sw.Objects)
	}
	tenants, requests, objects := sw.Tenants, sw.Requests, sw.Objects
	if tenants == 0 {
		tenants = arrayTenants
	}
	if requests == 0 {
		requests = arrayRequests
	}
	if objects == 0 {
		objects = arrayObjects
	}
	app, err := apps.ByName(arrayApp)
	if err != nil {
		return nil, err
	}
	rows, err := runPoints(o, len(grid), func(i int, po Options) (ArrayRow, error) {
		return arrayPointRun(po, grid[i], app, tenants, requests, objects)
	})
	if err != nil {
		return nil, err
	}
	return &ArrayResult{Rows: rows}, nil
}

// Table renders the sweep.
func (r *ArrayResult) Table() *Table {
	t := &Table{
		Title: "E17 — sharded array serving sweep (extension beyond the paper)",
		Header: []string{"shards", "repl", "arrival", "loss", "arrivals", "admitted", "rejected",
			"m/h/r", "remote", "p99", "gold p99", "gold burn", "fair(ten)", "fair(shard)", "slots util"},
	}
	for _, row := range r.Rows {
		loss := "-"
		if row.Loss {
			loss = "shard down"
		}
		t.AddRow(
			fmt.Sprintf("%d", row.Shards), fmt.Sprintf("%d", row.Replicas),
			row.Mix.String(), loss,
			fmt.Sprintf("%d", row.Arrivals), fmt.Sprintf("%d", row.Admitted),
			fmt.Sprintf("%d", row.Rejected),
			fmt.Sprintf("%d/%d/%d", row.Path[core.PathMorpheus], row.Path[core.PathHostFallback], row.Path[core.PathReplicaFallback]),
			fmt.Sprintf("%d", row.RemoteReads),
			row.P99.String(), row.GoldP99.String(), f2(row.GoldBurn),
			f2(row.FairTenants), f2(row.FairShards), f2(row.SlotsUtil))
	}
	t.Note("extrapolation beyond the paper: the paper evaluates one Morpheus-SSD; E17 shards its serving path across a consistent-hash fleet with k-way replication")
	t.Note("m/h/r = requests served via the morpheus / host-fallback / replica-fallback paths; remote = replica re-fetches served by a surviving shard")
	t.Note("gold burn = (violations/served)/budget for the gold class; fairness = Jain index over served counts")
	return t
}
