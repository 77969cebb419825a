package array

import (
	"bytes"
	"fmt"
	"math/rand"

	"morpheus/internal/core"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// Class is one QoS tier of the tenant population. The per-class latency
// target feeds both the registry SLO machinery (the experiment layer
// registers one shard-qualified SLO per class per shard) and the
// engine's own exact violation counts.
type Class struct {
	Name     string
	TargetPS int64
	Budget   float64
}

// DefaultClasses is the three-tier population: 10% of tenants are gold,
// ~30% silver, the rest bronze (classOf). Targets are calibrated to the
// bench-scale serving path: a healthy MREAD train finishes well under
// the gold target, while degraded-mode requests (retry backoffs plus a
// remote replica re-fetch) blow through the gold budget.
func DefaultClasses() []Class {
	return []Class{
		{Name: "gold", TargetPS: int64(units.Millisecond), Budget: 0.05},
		{Name: "silver", TargetPS: int64(5 * units.Millisecond), Budget: 0.10},
		{Name: "bronze", TargetPS: int64(20 * units.Millisecond), Budget: 0.25},
	}
}

// classOf deterministically assigns tenant tid to a class index.
func classOf(tid, classes int) int {
	if classes <= 1 {
		return 0
	}
	switch {
	case tid%10 == 0:
		return 0
	case tid%3 == 0:
		return 1 % classes
	default:
		return 2 % classes
	}
}

// TrafficConfig shapes one open-loop run against an Array.
type TrafficConfig struct {
	// Tenants is the tenant population size; requests pick tenants from
	// a Zipf distribution over it (a few hot tenants, a long tail).
	Tenants int
	// Requests is the total number of arrivals to generate.
	Requests int
	// Objects is how many distinct staged objects the tenants map onto
	// (each tenant reads one object, hash-assigned).
	Objects int
	// Mean is the long-run mean interarrival time; Mix the process shape.
	Mean units.Duration
	Mix  Mix
	// Seed drives the arrival and tenant-pick streams.
	Seed int64
	// App/Parser/Spec are the served StorageApp and its host-fallback
	// parser (the same pair every degraded-mode caller supplies).
	App    *core.StorageApp
	Parser func() core.HostParser
	Spec   core.ParseSpec
	// Classes is the QoS tiering (nil = DefaultClasses).
	Classes []Class
}

// ClassStats is one class's exact QoS outcome.
type ClassStats struct {
	Name       string
	Served     int
	Violations int
	Budget     float64
}

// Burn is the class's error-budget burn rate: (violations/served)/budget.
func (c ClassStats) Burn() float64 {
	if c.Served == 0 || c.Budget <= 0 {
		return 0
	}
	return float64(c.Violations) / float64(c.Served) / c.Budget
}

// TrafficResult is one run's outcome.
type TrafficResult struct {
	Arrivals int
	Admitted int
	Rejected int
	Errors   int
	// Path counts served requests by core.ServePath (morpheus,
	// host-fallback, replica-fallback).
	Path [3]int
	// ShardServed / ShardArrivals index by shard ID.
	ShardServed   []int
	ShardArrivals []int
	// TenantServed indexes by tenant ID (most of a large population
	// never arrives; fairness is computed over tenants that did).
	TenantServed []int
	Classes      []ClassStats
	// FairnessTenants / FairnessShards are Jain indices over served
	// counts (1.0 = perfectly even): tenants over the tenants that were
	// actually served, shards over every shard (zeros included, so a
	// single hot shard reads as 1/N, not 1.0).
	FairnessTenants float64
	FairnessShards  float64
	// Horizon is the latest completion on the virtual clock.
	Horizon units.Time
	// DeferredFetches counts the replica re-fetches the run made, each a
	// read on another shard (RunTrafficParallel). Windows, Rounds and
	// EarlyFetches are always zero; they stay only because the benchmark
	// still reads them (ROADMAP item 1 drops them).
	Windows         int
	Rounds          int
	DeferredFetches int
	EarlyFetches    int
}

// jain is Jain's fairness index over all of xs, zeros included
// (1.0 = perfectly even; 1/n = one entry hogging everything).
func jain(xs []int) float64 {
	var sum, sq float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		sq += v * v
	}
	if len(xs) == 0 || sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// jainPositive restricts the index to nonzero entries — the tenant-side
// view, where most of a large Zipf population never arrives at all and
// counting absentees would drown the signal.
func jainPositive(xs []int) float64 {
	var live []int
	for _, x := range xs {
		if x > 0 {
			live = append(live, x)
		}
	}
	return jain(live)
}

// checkTraffic validates a config and resolves the class set.
func checkTraffic(tc *TrafficConfig) ([]Class, error) {
	if tc.Tenants < 1 || tc.Requests < 0 || tc.Objects < 1 {
		return nil, fmt.Errorf("array: traffic needs tenants >= 1, requests >= 0 and objects >= 1, got %d/%d/%d",
			tc.Tenants, tc.Requests, tc.Objects)
	}
	if tc.App == nil || tc.Parser == nil {
		return nil, fmt.Errorf("array: traffic needs an app and a fallback parser")
	}
	classes := tc.Classes
	if classes == nil {
		classes = DefaultClasses()
	}
	return classes, nil
}

// newTrafficResult returns a zeroed result shaped for the fleet.
func newTrafficResult(a *Array, tc *TrafficConfig, classes []Class) *TrafficResult {
	res := &TrafficResult{
		ShardServed:   make([]int, len(a.Shards)),
		ShardArrivals: make([]int, len(a.Shards)),
		TenantServed:  make([]int, tc.Tenants),
	}
	for _, c := range classes {
		res.Classes = append(res.Classes, ClassStats{Name: c.Name, Budget: c.Budget})
	}
	return res
}

// schedReq is one precomputed arrival. The whole request stream —
// arrival times, tenant picks, object names, primary routing — is a
// pure function of the TrafficConfig and the fleet layout, independent
// of how any request is served, so it can be materialized up front and
// partitioned across shard workers without changing a single value.
type schedReq struct {
	seq     int
	at      units.Time
	tid     int
	cidx    int
	name    string
	primary int
}

// buildSchedule materializes the request stream — the arrival process,
// an independent tenant-pick stream and its Zipf shape — and pre-warms
// the placement memo for every requested object as a side effect (Place
// writes its memo map, which must not happen concurrently later).
func buildSchedule(a *Array, tc *TrafficConfig, classes []Class) []schedReq {
	gen := NewArrivalGen(tc.Mix, tc.Mean, tc.Seed)
	// The tenant-pick stream is independent of the arrival stream so
	// changing the mix never reshuffles who asked.
	picks := rand.New(rand.NewSource(tc.Seed ^ 0x7e9a2d5c))
	// s=1.2, v=8 is a Zipf with a broad head: a few dozen hot tenants
	// share most of the traffic (rather than one tenant monopolizing it),
	// so multiple shards are active and fairness columns carry signal.
	var zipf *rand.Zipf
	if tc.Tenants > 1 {
		zipf = rand.NewZipf(picks, 1.2, 8, uint64(tc.Tenants-1))
	}
	reqs := make([]schedReq, tc.Requests)
	for r := 0; r < tc.Requests; r++ {
		at := gen.Next()
		tid := 0
		if zipf != nil {
			tid = int(zipf.Uint64())
		}
		name := ObjectName(int(hash64(fmt.Sprintf("tenant%d", tid)) % uint64(tc.Objects)))
		reqs[r] = schedReq{
			seq:     r,
			at:      at,
			tid:     tid,
			cidx:    classOf(tid, len(classes)),
			name:    name,
			primary: a.Place(name)[0],
		}
	}
	return reqs
}

// shardMetrics are one shard's serving metric handles, resolved once per
// run: serveOne names no metric per request.
type shardMetrics struct {
	arrivals, rejected, errors stats.TimedCounter
	slotsUtil                  stats.Sampler
	served                     [len(TrafficResult{}.Path)]stats.TimedCounter // by core.ServePath
	latency                    stats.Latency
	classLatency               []stats.Latency // by class index
}

func newShardMetrics(r *stats.Registry, classes []Class) *shardMetrics {
	m := &shardMetrics{
		arrivals:  r.TimedCounter("array.arrivals"),
		rejected:  r.TimedCounter("array.rejected"),
		errors:    r.TimedCounter("array.errors"),
		slotsUtil: r.Sampler("array.shard.slots_util"),
		latency:   r.Latency("array.request.latency_ps"),
	}
	for p := range m.served {
		m.served[p] = r.TimedCounter("array.served." + core.ServePath(p).String())
	}
	for _, c := range classes {
		m.classLatency = append(m.classLatency, r.Latency("array.request.latency_ps."+c.Name))
	}
	return m
}

// serveOne issues one scheduled request against its primary shard:
// admission control against the slot window, the full serving path via
// core.InvokeStorageApp at the arrival time (the shard's resource
// ledgers arbitrate overlap, exactly as the multi-file app runner does),
// the differential byte check, and every per-request metric, through the
// shard's handles m. Every served output is checked against the first
// response for the same object, so a degraded path silently corrupting
// bytes fails the run rather than skewing a row. Counts land in the
// shard's partial res and serving state in its inflight/refs.
//
// The objects land in *scratch (core.InvokeOptions.Into). A first
// response moves into refs, which owns it from then on, and *scratch is
// reset to nil; a later response only has to be compared, so its buffer
// becomes *scratch for the next request.
func serveOne(a *Array, tc *TrafficConfig, classes []Class, m *shardMetrics, rq schedReq, res *TrafficResult, inflight *[]units.Time, refs map[string][]byte, scratch *[]byte) error {
	sh := a.Shards[rq.primary]

	res.Arrivals++
	res.ShardArrivals[rq.primary]++
	m.arrivals.Add(int64(rq.at), 1)

	// Admission control: reap completed slots, then gate on the
	// shard's StorageApp slot window.
	limit := sh.Sys.SSD.MaxInstances()
	live := (*inflight)[:0]
	for _, done := range *inflight {
		if done > rq.at {
			live = append(live, done)
		}
	}
	*inflight = live
	if len(live) >= limit {
		res.Rejected++
		m.rejected.Add(int64(rq.at), 1)
		m.slotsUtil.Sample(int64(rq.at), 1)
		return nil
	}
	res.Admitted++
	m.slotsUtil.Sample(int64(rq.at), float64(len(live)+1)/float64(limit))

	file, err := sh.Sys.OpenFile(rq.name)
	if err != nil {
		return fmt.Errorf("array: shard %d lost %q from its namespace: %w", rq.primary, rq.name, err)
	}
	inv, err := sh.Sys.InvokeStorageApp(rq.at, core.InvokeOptions{
		App:  tc.App,
		File: file,
		Fallback: &core.Fallback{
			Parser: tc.Parser,
			Spec:   tc.Spec,
		},
		Into: *scratch,
	})
	if err != nil {
		// A fully unservable request (every replica gone); counted,
		// not fatal — brownouts are an outcome, not a crash.
		res.Errors++
		m.errors.Add(int64(rq.at), 1)
		return nil
	}
	if ref, seen := refs[rq.name]; !seen {
		refs[rq.name] = inv.Out
		*scratch = nil
	} else {
		if !bytes.Equal(ref, inv.Out) {
			return fmt.Errorf("array: %q served different bytes via %s than its first response", rq.name, inv.Path)
		}
		*scratch = inv.Out
	}
	*inflight = append(*inflight, inv.Done)
	if inv.Done > res.Horizon {
		res.Horizon = inv.Done
	}
	res.Path[inv.Path]++
	res.ShardServed[rq.primary]++
	res.TenantServed[rq.tid]++
	res.Classes[rq.cidx].Served++
	lat := int64(inv.Done.Sub(rq.at))
	if lat > classes[rq.cidx].TargetPS {
		res.Classes[rq.cidx].Violations++
	}
	m.served[inv.Path].Add(int64(inv.Done), 1)
	m.latency.Observe(int64(inv.Done), lat)
	m.classLatency[rq.cidx].Observe(int64(inv.Done), lat)
	return nil
}

// ObjectName is the canonical staged-object naming scheme shared by
// staging and routing.
func ObjectName(i int) string { return fmt.Sprintf("obj%04d", i) }
