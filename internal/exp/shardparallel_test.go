package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"morpheus/internal/sim"
	"morpheus/internal/trace"
)

// shardParArray is the E17 slice the shard-parallel battery runs: a
// single 8-shard point (healthy + loss) with enough traffic that the
// loss point's degraded re-fetches cross several conservative windows.
func shardParArray(o Options) (tabler, error) {
	return RunArray(o, ArraySweep{
		Shards: 8, Replicas: 2,
		Tenants: 64, Requests: 48, Objects: 8,
	})
}

// TestShardParallelMatches is the experiment-level arm of the
// conservative-window contract: E17 renders the same table, the same
// aggregate metrics JSON, and the same adopted trace (span IDs included)
// whether its worker budget leaves every shard on one slot or funds all
// eight, and under the point fan-out too, so the shared budget is
// exercised with both layers live.
func TestShardParallelMatches(t *testing.T) {
	o := testOptions()
	o.Scale = 1.0 / 8192

	var wantTable string
	var wantJSON []byte
	var wantEvents []trace.Event
	for _, tokens := range []int{1, 8} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("budget=%d parallel=%d", tokens, par)
			o.Parallel = par
			o.budget = sim.NewWorkerBudget(tokens)
			table, js, events := observedRun(t, shardParArray, o)
			if tokens == 8 && par == 1 {
				// One point at a time holds one token and scavenges the
				// other seven for its shards.
				if peak := o.budget.Peak(); peak != 8 {
					t.Errorf("%s: budget peak = %d, want all 8 slots in use", label, peak)
				}
			}
			if wantJSON == nil {
				wantTable, wantJSON, wantEvents = table, js, events
				continue
			}
			if table != wantTable {
				t.Errorf("%s: table diverged:\n%s\nvs:\n%s", label, wantTable, table)
			}
			if !bytes.Equal(js, wantJSON) {
				t.Errorf("%s: metrics JSON diverged", label)
			}
			if !reflect.DeepEqual(events, wantEvents) {
				t.Errorf("%s: trace diverged", label)
			}
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
	r, err := RunArray(o, ArraySweep{Tenants: 64, Requests: 48, Objects: 8})
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
