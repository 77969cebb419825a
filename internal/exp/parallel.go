package exp

import (
	"runtime"
	"sync"

	"morpheus/internal/apps"
	"morpheus/internal/sim"
	"morpheus/internal/stats"
)

// The parallel runner. Every experiment in this package is a sweep over
// independent points (usually one application each): every point builds
// its own fresh system, stages its own input, and never shares mutable
// state with any other point. That independence is what runPoints
// exploits — points fan out across a worker pool, and the only shared
// structures, the experiment-wide tracer and metrics registry, are fed
// through a deterministic in-order fold so the output is byte-identical
// to a sequential run at any worker count.
//
// The determinism argument, in full:
//
//   - Each simulated system is single-threaded and seeded from Options
//     alone, so a point's reports, tables, and per-system registries do
//     not depend on scheduling.
//   - Every point, at every worker count, records into isolated
//     per-point tracers/registries (pointOptions), folded back into the
//     caller's via Tracer.Adopt / Registry.Merge strictly in point order,
//     as each next-in-order point completes. Adopt renumbers span IDs to
//     exactly the IDs a shared tracer would have issued sequentially, and
//     because every worker count groups additions identically, even
//     non-associative floating-point accumulations come out bit-equal.
//   - On failure the runner reports the lowest-index error — the same one
//     a one-worker run hits first — and folds only the points before it.

// workers resolves the worker count: o.Parallel if positive, otherwise
// one worker per CPU.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.NumCPU()
}

// ensureBudget lazily creates the experiment-wide worker budget both
// layers of parallelism draw from: every in-flight sweep point holds one
// token, and an array point scavenges extra tokens for its shard
// goroutines (arrayPointRun). The cap is the worker count: enough for
// the full point fan-out OR one point's full shard fan-out, but never
// the product of the two. Tests inject a pre-made budget to pin the cap.
func (o *Options) ensureBudget() {
	if o.budget == nil {
		o.budget = sim.NewWorkerBudget(o.workers())
	}
}

// pointOptions derives the isolated option set one sweep point runs
// under: the same workload knobs (Scale, Seed, Mutate, Faults — each
// Stage builds its own RNG from Seed, so sharing the seed is safe), but
// private observation sinks. The per-point tracer is an unbounded child
// of the caller's — it inherits the tail-sampling policy, so sampling
// decisions happen point-locally and Adopt folds already-sampled
// events; the caller's Cap is enforced once, at adoption, which
// reproduces the sequential drop prefix exactly.
func (o Options) pointOptions() Options {
	po := o
	if o.Trace != nil {
		po.Trace = o.Trace.Child()
	}
	if o.Metrics != nil {
		po.Metrics = stats.NewRegistry()
	}
	return po
}

// fold merges one completed point's observation sinks back into the
// experiment-wide ones. Callers must fold in point order.
func (o Options) fold(po Options) {
	if o.Trace != nil {
		o.Trace.Adopt(po.Trace)
	}
	if o.Metrics != nil {
		o.Metrics.Merge(po.Metrics)
	}
}

// runPoints executes n independent sweep points and returns their
// results in point order. run receives the point index and the Options
// the point must use for every system it builds (observe/collect write
// into the per-point sinks). The points fan out across a pool of
// min(workers, n) goroutines — one worker is simply a pool of one — and
// every point folds through its own isolated sinks: floating-point
// accumulation (a gauge's time-weighted integral, say) is not
// associative, so byte identity across worker counts requires the exact
// same grouping of additions, not merely the same order.
func runPoints[T any](o Options, n int, run func(i int, po Options) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	o.ensureBudget()
	w := o.workers()
	if w > n {
		w = n
	}

	type pointResult struct {
		i   int
		val T
		po  Options
		err error
	}
	idx := make(chan int)
	results := make(chan pointResult, n)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				po := o.pointOptions()
				o.budget.Acquire()
				v, err := run(i, po)
				o.budget.Release(1)
				results <- pointResult{i: i, val: v, po: po, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
	}()

	// Streaming in-order fold: completed points park in pending until
	// every lower-index point has folded, so the caller's tracer and
	// registry see exactly the sequential order. The first (lowest-index)
	// error stops the fold where a one-worker run would have stopped;
	// later points still drain so the workers exit cleanly.
	out := make([]T, n)
	pending := make(map[int]pointResult, w)
	var foldErr error
	next := 0
	for received := 0; received < n; received++ {
		r := <-results
		pending[r.i] = r
		for foldErr == nil {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if p.err != nil {
				foldErr = p.err
				break
			}
			o.fold(p.po)
			out[next] = p.val
			next++
		}
	}
	wg.Wait()
	if foldErr != nil {
		return nil, foldErr
	}
	return out, nil
}

// runApps is runPoints over the application suite: one sweep point per
// apps.All() entry, in Table I order.
func runApps[T any](o Options, run func(app *apps.App, po Options) (T, error)) ([]T, error) {
	all := apps.All()
	return runPoints(o, len(all), func(i int, po Options) (T, error) { return run(all[i], po) })
}
