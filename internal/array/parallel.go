// Conservative-window parallel shard execution (DESIGN.md §7). A fleet
// point steps N independent core.Systems; the only cross-shard causality
// edge is the degraded-mode replica re-fetch (core.ReplicaFetcher), and
// that edge carries a provable nonzero lookahead: a retryable media
// failure burns the full retry backoff budget on the virtual clock —
// on top of the PCIe SQE/doorbell and NVMe processing latency of the
// attempts — before the runtime falls back and asks another shard for
// the bytes. RunTrafficParallel exploits exactly that gap: each shard
// runs on its own goroutine and the fleet advances in windows one
// lookahead wide, with every re-fetch deferred to a sequenced exchange
// phase at the window barrier.
//
// The determinism argument:
//
//   - The request schedule (arrival times, tenant picks, object names,
//     primary routing) is a pure function of the TrafficConfig and the
//     fleet layout, materialized before any shard moves (buildSchedule).
//   - Within a window, shards touch only their own System — schedules
//     are partitioned by primary, placement is pre-warmed, and the
//     deferring fetcher turns the one cross-shard call into a parked
//     request — so per-shard execution is single-threaded and identical
//     at any worker-slot count.
//   - Deferred fetches execute in the barrier's serial exchange phase,
//     single-threaded, sorted by global request sequence, against
//     holder systems that have quiesced at the same barrier. Delivery
//     order is therefore a protocol constant — independent of which
//     goroutine arrived last and of GOMAXPROCS.
//   - Per-shard results, registries, and child tracers fold back in
//     shard order, the same grouping every run uses.
//
// Together: tables, metrics JSON, windowed series, SLO burn, and traces
// are byte-identical at any slot count, so the experiment harness sizes
// the slots from whatever its -parallel worker budget has free.
package array

import (
	"sort"
	"sync"

	"morpheus/internal/core"
	"morpheus/internal/sim"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// ReplicaLookahead is the provable minimum virtual-time distance between
// a request's submission and the earliest instant its replica re-fetch
// can reach another shard: the traffic path serves requests under
// core.DefaultRetryPolicy, and a retryable device failure charges every
// backoff of that policy on the virtual clock before the host fallback
// path runs and fetches the replica. The window width of
// RunTrafficParallel equals this bound, so any fetch parked inside a
// window is provably ready at or past the window's end — checked at
// runtime, since a non-retryable failure (an immediate-fallback
// shortcut) would void the derivation.
func ReplicaLookahead() units.Duration {
	return core.DefaultRetryPolicy().BackoffBudget()
}

// execShard is one shard's private executor state. Everything here is
// touched only by the shard's own goroutine, except the park slot
// (seq/name/ready in, data/done/fok out), which the exchange phase
// reads and writes strictly between barrier arrivals.
type execShard struct {
	id       int
	reqs     []schedReq // this shard's slice of the schedule, seq order
	cursor   int
	inflight []units.Time
	refs     map[string][]byte
	scratch  []byte         // serveOne's recycled result buffer
	metrics  *shardMetrics  // the shard's serving handles
	res      *TrafficResult // per-shard partial, merged in shard order
	end      units.Time     // current window barrier

	// Park slot. A shard serves one request at a time, so at most one
	// deferred fetch is outstanding per shard per exchange round.
	parked bool
	seq    int // global sequence of the parking request
	name   string
	ready  units.Time
	data   []byte
	done   units.Time
	fok    bool

	// First hard error (lowest seq, since requests run in seq order).
	failed bool
	errSeq int
	err    error
}

func (es *execShard) fail(seq int, err error) {
	if es.failed {
		return
	}
	es.failed = true
	es.errSeq = seq
	es.err = err
}

// trafficExec coordinates one windowed run.
type trafficExec struct {
	a       *Array
	tc      *TrafficConfig
	classes []Class
	window  units.Duration
	ends    []units.Time // barriers of the non-empty windows, ascending

	rz    *sim.Rendezvous   // one party per shard
	slots *sim.WorkerBudget // bounds shards simulating concurrently

	shards []*execShard
	more   bool // serial-phase verdict: another round in this window

	// Protocol accounting, written only in serial phases; folded into
	// the merged TrafficResult.
	rounds   int
	deferred int
	early    int
}

// parkingFetcher is the ReplicaFetcher installed on every shard for the
// duration of a windowed run: instead of reading the holder inline (a
// cross-shard touch that would race and reorder), it parks the request
// at the barrier and hands the fetch to the exchange phase.
type parkingFetcher struct {
	ex *trafficExec
	es *execShard
}

func (f *parkingFetcher) FetchReplica(ready units.Time, name string) ([]byte, units.Time, bool) {
	es, ex := f.es, f.ex
	es.name, es.ready = name, ready
	es.parked = true
	end := es.end
	// Quiesce: give up the CPU slot so another shard can run, join the
	// barrier, and let the last arriver run the exchange.
	ex.slots.Release(1)
	ex.rz.Arrive(func() { ex.exchange(end) })
	ex.slots.Acquire()
	return es.data, es.done, es.fok
}

// exchange is the barrier's serial phase: every shard has either
// finished its window or parked on a fetch, so the coordinator-of-the-
// round executes all parked fetches single-threaded against the (now
// quiesced) holder systems, sorted by global request sequence — the
// ordering that makes delivery scheduling-independent.
func (ex *trafficExec) exchange(end units.Time) {
	var parked []*execShard
	for _, es := range ex.shards {
		if es.parked {
			parked = append(parked, es)
		}
	}
	sort.Slice(parked, func(i, j int) bool { return parked[i].seq < parked[j].seq })
	for _, es := range parked {
		es.parked = false
		if es.ready < end {
			// The backoff-budget bound covers the retryable path; a
			// non-retryable shortcut (e.g. the LBA retired after the first
			// uncorrectable read turns the retry terminal) surfaces its
			// fetch in under one lookahead. Delivery order and the
			// holder's interval ledgers do not care — they place an
			// acquire at a past ready in its earliest gap, as they do
			// whenever the holder's clock runs ahead — so this is
			// accounting, not an error.
			ex.early++
		}
		f := shardFetcher{a: ex.a, self: es.id}
		es.data, es.done, es.fok = f.FetchReplica(es.ready, es.name)
	}
	ex.rounds++
	ex.deferred += len(parked)
	ex.more = len(parked) > 0
}

// runShard advances one shard through every window: serve the window's
// requests (parking inside the fetcher when one goes degraded) and
// rendezvous. A shard is quiesced once its requests return, since every
// command's completion is delivered inline. Rounds repeat within a
// window until an exchange finds nothing parked.
func (ex *trafficExec) runShard(es *execShard) {
	for _, end := range ex.ends {
		es.end = end
		for {
			if !es.failed && es.cursor < len(es.reqs) && es.reqs[es.cursor].at < end {
				ex.slots.Acquire()
				for !es.failed && es.cursor < len(es.reqs) && es.reqs[es.cursor].at < end {
					rq := es.reqs[es.cursor]
					es.seq = rq.seq
					if err := serveOne(ex.a, ex.tc, ex.classes, es.metrics, rq, es.res, &es.inflight, es.refs, &es.scratch); err != nil {
						es.fail(rq.seq, err)
						break
					}
					es.cursor++
				}
				ex.slots.Release(1)
			}
			ex.rz.Arrive(func() { ex.exchange(end) })
			if !ex.more {
				break
			}
		}
	}
}

// RunTrafficParallel drives one open-loop request stream against the
// fleet. Each request is routed to its object's primary shard,
// admission-checked against that shard's slot window, and served at its
// own arrival time (serveOne). Shards advance under the
// conservative-window protocol, every shard on its own goroutine with at
// most slots of them simulating at once. Output is
// byte-identical at any slots value (1 included); see the package
// comment at the top of this file for the argument. slots only caps
// host CPU concurrency — it is clamped to [1, shards] and is safe to
// size best-effort from a shared sim.WorkerBudget.
//
// The fleet-level tracer attached via AttachTracer (if any) is swapped
// for per-shard children during the run and re-adopted in shard order,
// so span IDs are deterministic; the original tracer and the shards'
// replica routers are restored before returning.
func RunTrafficParallel(a *Array, tc TrafficConfig, slots int) (*TrafficResult, error) {
	classes, err := checkTraffic(&tc)
	if err != nil {
		return nil, err
	}
	if slots < 1 {
		slots = 1
	}
	if slots > len(a.Shards) {
		slots = len(a.Shards)
	}
	window := ReplicaLookahead()
	reqs := buildSchedule(a, &tc, classes)

	ex := &trafficExec{
		a:       a,
		tc:      &tc,
		classes: classes,
		window:  window,
		rz:      sim.NewRendezvous(len(a.Shards)),
		slots:   sim.NewWorkerBudget(slots),
	}
	for i := range a.Shards {
		ex.shards = append(ex.shards, &execShard{
			id:      i,
			res:     newTrafficResult(a, &tc, classes),
			refs:    map[string][]byte{},
			metrics: newShardMetrics(a.Shards[i].Sys.Metrics, classes),
		})
	}
	// Arrivals are monotone, so the distinct window barriers come out
	// ascending; windows nobody arrives in are skipped fleet-wide.
	lastEnd := units.Time(-1)
	for _, rq := range reqs {
		end := units.Time((int64(rq.at)/int64(window) + 1) * int64(window))
		if end != lastEnd {
			ex.ends = append(ex.ends, end)
			lastEnd = end
		}
		es := ex.shards[rq.primary]
		es.reqs = append(es.reqs, rq)
	}

	// Interpose: deferring fetchers and per-shard child tracers, both
	// restored on the way out. The fleet shares one tracer (AttachTracer),
	// so shard 0's is the point tracer to fold back into.
	shared := a.Shards[0].Sys.Tracer()
	children := make([]*trace.Tracer, len(a.Shards))
	saved := make([]core.ReplicaFetcher, len(a.Shards))
	for i, sh := range a.Shards {
		saved[i] = sh.Sys.ReplicaFetcher()
		sh.Sys.SetReplicaFetcher(&parkingFetcher{ex: ex, es: ex.shards[i]})
		if shared != nil {
			children[i] = shared.Child()
			sh.Sys.AttachTracer(children[i])
		}
	}

	var wg sync.WaitGroup
	for _, es := range ex.shards {
		wg.Add(1)
		go func(es *execShard) {
			defer wg.Done()
			ex.runShard(es)
		}(es)
	}
	wg.Wait()

	for i, sh := range a.Shards {
		sh.Sys.SetReplicaFetcher(saved[i])
		if shared != nil {
			shared.Adopt(children[i])
			sh.Sys.AttachTracer(shared)
		}
	}

	// The lowest-sequence error is the one a sequential pass over the
	// schedule would have hit first; report it alone.
	var firstErr error
	firstSeq := -1
	for _, es := range ex.shards {
		if es.failed && (firstSeq < 0 || es.errSeq < firstSeq) {
			firstSeq, firstErr = es.errSeq, es.err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	// Fold the per-shard partials in shard order.
	res := newTrafficResult(a, &tc, classes)
	for _, es := range ex.shards {
		p := es.res
		res.Arrivals += p.Arrivals
		res.Admitted += p.Admitted
		res.Rejected += p.Rejected
		res.Errors += p.Errors
		for i := range res.Path {
			res.Path[i] += p.Path[i]
		}
		for i := range res.ShardServed {
			res.ShardServed[i] += p.ShardServed[i]
			res.ShardArrivals[i] += p.ShardArrivals[i]
		}
		for i := range res.TenantServed {
			res.TenantServed[i] += p.TenantServed[i]
		}
		for i := range res.Classes {
			res.Classes[i].Served += p.Classes[i].Served
			res.Classes[i].Violations += p.Classes[i].Violations
		}
		if p.Horizon > res.Horizon {
			res.Horizon = p.Horizon
		}
	}
	res.FairnessTenants = jainPositive(res.TenantServed)
	res.FairnessShards = jain(res.ShardServed)
	res.Windows = len(ex.ends)
	res.Rounds = ex.rounds
	res.DeferredFetches = ex.deferred
	res.EarlyFetches = ex.early
	return res, nil
}
