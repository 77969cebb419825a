package stats

import (
	"bytes"
	"fmt"
	"testing"
)

// shardRegistry builds one shard's registry the way an array run does:
// every shard shares the same virtual clock (all start at zero), so the
// same gauge names carry samples at identical timestamps across shards —
// including exact ties — and the windowed series buckets the same window
// indices. Values are small integers so every floating-point fold is
// exact and any divergence between merge orders is a semantics bug, not
// rounding.
func shardRegistry(shard int) *Registry {
	r := NewRegistry()
	r.EnableSeries(1000)
	r.AddSLO(SLOConfig{Name: "all", Metric: "req.latency_ps", TargetPS: 500, Budget: 0.2})
	r.AddSLO(SLOConfig{
		Name:   fmt.Sprintf("gold@s%d", shard),
		Metric: "req.latency_ps", TargetPS: 300, Budget: 0.1,
	})
	for i := 0; i < 4; i++ {
		t := int64(250*i + 100)
		r.TimedCounter("req.count").Add(t, int64(shard+1))
		r.Latency("req.latency_ps").Observe(t, int64(200+100*shard+10*i))
		// Every shard samples the shared-clock gauge at the same instants;
		// the values differ per shard, so the equal-timestamp tie-break is
		// exercised at every sample.
		r.Sampler("slots_util").Sample(t, float64((shard*3+i)%5))
	}
	// A shard-unique gauge too, so merged name sets differ per source.
	r.Sampler(fmt.Sprintf("shard%d.depth", shard)).Sample(700, float64(shard))
	return r
}

func permutations(n int) [][]int {
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i, v := range rest {
			nr := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, v), nr)
		}
	}
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	rec(nil, seq)
	return out
}

// TestMergePermutationInvariant: folding N shard registries that share
// one virtual clock into a fresh receiver must emit byte-identical
// artifacts under every merge order — counters and histogram buckets add
// commutatively, SLO counts add, and the gauges' last-write-wins is
// timestamp-ordered with a commutative tie-break, never merge-order
// dependent. (Before the tie-break fix, equal-timestamp samples resolved
// to whichever shard merged last.)
func TestMergePermutationInvariant(t *testing.T) {
	const n = 3
	emit := func(order []int) (metrics, series []byte) {
		agg := NewRegistry()
		for _, i := range order {
			agg.Merge(shardRegistry(i))
		}
		var m, s bytes.Buffer
		if err := agg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteSeriesJSON(&s); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), s.Bytes()
	}

	perms := permutations(n)
	refM, refS := emit(perms[0])
	if !bytes.Contains(refM, []byte(`"slos"`)) {
		t.Fatalf("reference metrics carry no SLO summary:\n%s", refM)
	}
	for _, p := range perms[1:] {
		m, s := emit(p)
		if !bytes.Equal(m, refM) {
			t.Errorf("metrics JSON diverged for merge order %v:\n%s\nvs reference:\n%s", p, m, refM)
		}
		if !bytes.Equal(s, refS) {
			t.Errorf("series JSON diverged for merge order %v", p)
		}
	}
}

// TestMergePermutationGaugeTie isolates the bug the invariant above
// guards against: two shards sampling the same gauge at the same virtual
// instant must merge to the same last value in either order.
func TestMergePermutationGaugeTie(t *testing.T) {
	mk := func(v float64) *Registry {
		r := NewRegistry()
		r.Sampler("util").Sample(500, v)
		return r
	}
	ab, ba := NewRegistry(), NewRegistry()
	ab.Merge(mk(0.25))
	ab.Merge(mk(0.75))
	ba.Merge(mk(0.75))
	ba.Merge(mk(0.25))
	if ab.Gauge("util").Last() != ba.Gauge("util").Last() {
		t.Fatalf("tie resolution depends on merge order: %g vs %g",
			ab.Gauge("util").Last(), ba.Gauge("util").Last())
	}
	if got := ab.Gauge("util").Last(); got != 0.75 {
		t.Fatalf("tie Last() = %g, want the larger sample 0.75", got)
	}
}
