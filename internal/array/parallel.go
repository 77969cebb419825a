// Parallel shard execution in global sequence order (DESIGN.md §7). A
// fleet point steps N independent core.Systems, each shard on its own
// goroutine. The only cross-shard edge is the degraded-mode replica
// re-fetch (core.ReplicaFetcher): a shard that lost its copy reads the
// bytes off a holder's media, charging the holder's driver and clock.
// RunTrafficParallel keeps every system's operations in the order the
// inline oracle — one goroutine serving the schedule in arrival order —
// gives them, so its output equals that oracle's.
//
// The rule:
//
//   - Fetchers, the shards that can re-fetch a replica, are fixed when a
//     run begins: a shard that is Down, has a flash fault model with
//     UncorrectablePerM > 0, or has lost FTL pages to an earlier fault.
//     Any other shard that fetches fails the run with an error naming it.
//   - Every shard s publishes next[s], the sequence of its first
//     unfinished request (MaxInt once it has none).
//   - An operation at sequence q on holder h by shard r — r's own
//     request (h = r) or r's replica read of h — waits until h (when
//     h != r) and every fetcher other than r have next > q. Nobody reads
//     a Down shard, so a Down shard's own requests wait on nothing. A
//     fleet with no fetchers never waits.
//
// Every operation on a system at sequence below q therefore finishes
// before the one at q starts, so each system sees the inline order.
// Every wait is on a shard whose first unfinished request has a smaller
// sequence, so the lowest unfinished request never waits and the run
// cannot deadlock. The schedule is a pure function of the TrafficConfig
// (buildSchedule), per-shard results, registries and child tracers fold
// back in shard order, and worker slots only bound how many shards
// simulate at once (a waiting shard gives its slot up). Together:
// tables, metrics JSON, windowed series, SLO burn and traces are
// byte-identical at any slot count, so the experiment harness sizes the
// slots from whatever its -parallel worker budget has free.
package array

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"morpheus/internal/core"
	"morpheus/internal/sim"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// execShard is one shard's private executor state, touched only by the
// shard's own goroutine until the run's WaitGroup releases it.
type execShard struct {
	id       int
	reqs     []schedReq // this shard's slice of the schedule, seq order
	seq      int        // the request being served
	inflight []units.Time
	refs     map[string][]byte
	scratch  []byte         // serveOne's recycled result buffer
	metrics  *shardMetrics  // the shard's serving handles
	res      *TrafficResult // per-shard partial, merged in shard order
	fetches  int            // replica re-fetches this shard made

	// err is the shard's first hard error, raised serving request seq.
	// The shard's orderedFetcher sets it too, since a fetcher can only
	// answer "no replica".
	err error
}

// trafficExec coordinates one run.
type trafficExec struct {
	a       *Array
	tc      *TrafficConfig
	classes []Class
	slots   *sim.WorkerBudget // bounds shards simulating concurrently
	shards  []*execShard

	fetchers []int // shards that may re-fetch a replica this run, ascending

	mu   sync.Mutex
	cond *sync.Cond
	next []int // by shard: seq of its first unfinished request
}

// mayFetch reports whether sh can take the degraded path to a replica:
// it is down, its media fails reads, or it lost pages to an earlier
// fault (those stay lost after the fault model is cleared).
func mayFetch(sh *Shard) bool {
	return sh.Down || sh.Sys.SSD.Flash.FaultModel().UncorrectablePerM > 0 || sh.Sys.SSD.FTL.LostPages() > 0
}

// passed reports whether shard r may run its operation at seq q on
// holder h. Call with ex.mu held.
func (ex *trafficExec) passed(r, h, q int) bool {
	if h != r && ex.next[h] <= q {
		return false
	}
	for _, f := range ex.fetchers {
		if f != r && ex.next[f] <= q {
			return false
		}
	}
	return true
}

// await blocks shard r's operation at seq q on holder h until the rule
// lets it run, giving up r's worker slot while it blocks.
func (ex *trafficExec) await(r, h, q int) {
	if len(ex.fetchers) == 0 {
		return
	}
	ex.mu.Lock()
	if ex.passed(r, h, q) {
		ex.mu.Unlock()
		return
	}
	ex.slots.Release(1)
	for !ex.passed(r, h, q) {
		ex.cond.Wait()
	}
	ex.mu.Unlock()
	ex.slots.Acquire()
}

// publish sets shard s's frontier to next.
func (ex *trafficExec) publish(s, next int) {
	if len(ex.fetchers) == 0 {
		return
	}
	ex.mu.Lock()
	ex.next[s] = next
	ex.mu.Unlock()
	ex.cond.Broadcast()
}

// orderedFetcher is the ReplicaFetcher installed on every shard for the
// duration of a run: it reads the holder directly, each holder touch
// waiting its turn in global sequence order.
type orderedFetcher struct {
	ex *trafficExec
	es *execShard
}

func (f *orderedFetcher) FetchReplica(ready units.Time, name string) ([]byte, units.Time, bool) {
	ex, es := f.ex, f.es
	if !slices.Contains(ex.fetchers, es.id) {
		es.err = fmt.Errorf("array: shard %d re-fetched a replica of %q but was neither down, faulted nor short of pages when the run began",
			es.id, name)
		return nil, 0, false
	}
	es.fetches++
	return ex.a.readReplica(es.id, ready, name, func(h int) { ex.await(es.id, h, es.seq) })
}

// runShard serves one shard's slice of the schedule in seq order,
// publishing its frontier after each request.
func (ex *trafficExec) runShard(es *execShard) {
	ex.slots.Acquire()
	defer ex.slots.Release(1)
	down := ex.a.Shards[es.id].Down
	for i, rq := range es.reqs {
		es.seq = rq.seq
		if !down {
			ex.await(es.id, es.id, rq.seq)
		}
		if err := serveOne(ex.a, ex.tc, ex.classes, es.metrics, rq, es.res, &es.inflight, es.refs, &es.scratch); err != nil {
			es.err = err
		}
		if es.err != nil {
			break
		}
		if i+1 < len(es.reqs) {
			ex.publish(es.id, es.reqs[i+1].seq)
		}
	}
	ex.publish(es.id, math.MaxInt)
}

// RunTrafficParallel drives one open-loop request stream against the
// fleet. Each request is routed to its object's primary shard,
// admission-checked against that shard's slot window, and served at its
// own arrival time (serveOne). Every shard runs on its own goroutine,
// with at most slots of them simulating at once, under the sequence
// rule in the comment at the top of this file. Output is byte-identical
// at any slots value (1 included) and equals serving the schedule in
// arrival order on one goroutine. slots only caps host CPU concurrency —
// it is clamped to [1, shards] and is safe to size best-effort from a
// shared sim.WorkerBudget.
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
	slots = min(max(slots, 1), len(a.Shards))
	reqs := buildSchedule(a, &tc, classes)

	ex := &trafficExec{
		a:       a,
		tc:      &tc,
		classes: classes,
		slots:   sim.NewWorkerBudget(slots),
		next:    make([]int, len(a.Shards)),
	}
	ex.cond = sync.NewCond(&ex.mu)
	for i, sh := range a.Shards {
		ex.shards = append(ex.shards, &execShard{
			id:      i,
			res:     newTrafficResult(a, &tc, classes),
			refs:    map[string][]byte{},
			metrics: newShardMetrics(sh.Sys.Metrics, classes),
		})
		if mayFetch(sh) {
			ex.fetchers = append(ex.fetchers, i)
		}
		ex.next[i] = math.MaxInt
	}
	for _, rq := range reqs {
		es := ex.shards[rq.primary]
		if len(es.reqs) == 0 {
			ex.next[rq.primary] = rq.seq
		}
		es.reqs = append(es.reqs, rq)
	}

	// Interpose: ordered fetchers and per-shard child tracers, both
	// restored on the way out. The fleet shares one tracer (AttachTracer),
	// so shard 0's is the point tracer to fold back into.
	shared := a.Shards[0].Sys.Tracer()
	children := make([]*trace.Tracer, len(a.Shards))
	saved := make([]core.ReplicaFetcher, len(a.Shards))
	for i, sh := range a.Shards {
		saved[i] = sh.Sys.ReplicaFetcher()
		sh.Sys.SetReplicaFetcher(&orderedFetcher{ex: ex, es: ex.shards[i]})
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
		if es.err != nil && (firstSeq < 0 || es.seq < firstSeq) {
			firstSeq, firstErr = es.seq, es.err
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
		res.DeferredFetches += es.fetches
	}
	res.FairnessTenants = jainPositive(res.TenantServed)
	res.FairnessShards = jain(res.ShardServed)
	return res, nil
}
