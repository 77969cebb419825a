package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"morpheus/internal/sim"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// shardParArray is the E17 slice the shard-parallel battery runs: a
// single 8-shard point (healthy + loss) with enough traffic that the
// loss point's degraded re-fetches interleave with the holders' own
// requests.
func shardParArray(o Options) ([]*Table, error) {
	o.Array = ArraySweep{
		Shards: 8, Replicas: 2,
		Tenants: 64, Requests: 48, Objects: 8,
	}
	return oneTable(RunArray)(o)
}

// TestShardParallelMatches is the experiment-level arm of the shard
// executor's contract: E17 renders the same table, the same
// aggregate metrics and series JSON, and the same adopted trace (span IDs
// included) whether its worker budget leaves every shard on one slot or
// funds all eight, and under the point fan-out too, so the shared budget
// is exercised with both layers live.
//
// It is also the race battery for single-writer registries: with eight
// tokens, eight shard goroutines each write counters, latencies, gauges,
// series windows and SLO windows into their own registry with no lock,
// and -race fails if any two goroutines ever share one.
func TestShardParallelMatches(t *testing.T) {
	o := testOptions()
	o.Scale = 1.0 / 8192
	o.MetricsWindow = 100 * units.Microsecond

	var wantTable string
	var wantJSON, wantSeries []byte
	var wantEvents []trace.Event
	for _, tokens := range []int{1, 8} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("budget=%d parallel=%d", tokens, par)
			o.Parallel = par
			o.budget = sim.NewWorkerBudget(tokens)
			tables, js, series, events := observedRun(t, shardParArray, o)
			table := renderTables(tables)
			if tokens == 8 && par == 1 {
				// One point at a time holds one token and scavenges the
				// other seven for its shards.
				if peak := o.budget.Peak(); peak != 8 {
					t.Errorf("%s: budget peak = %d, want all 8 slots in use", label, peak)
				}
			}
			if wantJSON == nil {
				wantTable, wantJSON, wantSeries, wantEvents = table, js, series, events
				continue
			}
			if table != wantTable {
				t.Errorf("%s: table diverged:\n%s\nvs:\n%s", label, wantTable, table)
			}
			if !bytes.Equal(js, wantJSON) {
				t.Errorf("%s: metrics JSON diverged", label)
			}
			if !bytes.Equal(series, wantSeries) {
				t.Errorf("%s: series JSON diverged", label)
			}
			if !reflect.DeepEqual(events, wantEvents) {
				t.Errorf("%s: trace diverged", label)
			}
		}
	}
	for _, kind := range []string{"counters", "histograms", "gauges", "slos"} {
		if !bytes.Contains(wantSeries, []byte(`"`+kind+`": {`)) {
			t.Errorf("no series window holds %s, so the race battery does not write them", kind)
		}
	}
}

// TestWorkerBudgetBoundsSweep is the oversubscription regression test:
// with an injected 4-token budget, an 8-way point fan-out whose points
// each ask for a slot per shard must never hold more than 4 tokens at
// once — points × shards stay inside the one global bound.
func TestWorkerBudgetBoundsSweep(t *testing.T) {
	o := testOptions()
	o.Scale = 1.0 / 8192
	o.Parallel = 8
	o.budget = sim.NewWorkerBudget(4)
	o.Array = ArraySweep{Tenants: 64, Requests: 48, Objects: 8}
	r, err := RunArray(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("sweep produced no rows")
	}
	if peak := o.budget.Peak(); peak == 0 || peak > 4 {
		t.Fatalf("worker budget peak = %d, want 1..4", peak)
	}
}
