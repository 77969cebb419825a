package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"morpheus/internal/units"
)

// testSizes shrinks every workload to a fraction of a second while
// keeping each one's mechanism: rejections at the top rate, a dead
// primary with traffic, and a cache smaller than the working set.
var testSizes = sizes{
	deserScale: 1.0 / 16384,

	shards: 4, replicas: 2, objects: 8, tenants: 50,
	objBytes:         16 * units.KiB,
	rates:            []float64{25_000, 50_000, 400_000},
	requests:         200,
	degradedRate:     25_000,
	degradedRequests: 300,

	cacheFiles:     4,
	cacheFileBytes: 64 * units.KiB,
	cacheBytes:     128 * units.KiB,
	cacheOps:       64,
}

func testRep(t *testing.T, w workload, seed int64) *rep {
	t.Helper()
	r, err := runRep(w, seed, testSizes, t.TempDir(), false)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return r
}

func TestIdentityFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, again, other := testRep(t, w, 1), testRep(t, w, 1), testRep(t, w, 2)
			if d := firstDifference(a.sim, again.sim); d != "" {
				t.Errorf("same seed, %s differs: %v vs %v", d, a.sim[d], again.sim[d])
			}
			if identity(a.sim) != identity(again.sim) {
				t.Errorf("same seed, different identity")
			}
			if identity(a.sim) == identity(other.sim) {
				t.Errorf("seeds 1 and 2 give the same identity %s", identity(a.sim))
			}
		})
	}
}

// Every simulated per-layer metric must come out of finish under its
// listed name, so a misspelled registry key cannot hide as a silent 0.
func TestFinishProducesEverySimulatedMetric(t *testing.T) {
	r := newRep(1, testSizes, t.TempDir())
	r.finish()
	for _, d := range simLayer {
		if _, ok := r.sim[d.name]; !ok {
			t.Errorf("finish does not set %s", d.name)
		}
	}
	if len(r.sim) != len(simLayer) {
		t.Errorf("finish set %d metrics, simLayer lists %d", len(r.sim), len(simLayer))
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	dir := t.TempDir()
	w, _ := lookup("cache-churn")
	rec, err := measure(w, 1, testSizes, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := rec.PerLayer[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if len(rec.PerLayer) != len(perLayer) {
		t.Errorf("got %d per-layer metrics, want %d", len(rec.PerLayer), len(perLayer))
	}
	for _, f := range []string{"cache-churn.spans.json", "cache-churn.cpu.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func TestPackageGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"morpheus/internal/mvm.fusePair.genScanStore.func1": "mvm",
		"runtime.mallocgc":                                          "runtime",
		"morpheus/internal/serial.isSep (inline)":                   "serial",
		"morpheus/internal/mvm.(*VM).scanIntFast":                   "mvm",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "runtime",
		"strconv.ParseUint":                                         "other",
		"morpheus/internal/units.Time.Add":                          "other",
		"slices.SortFunc[go.shape.[]morpheus/internal/trace.Event]": "other",
		"main.deserSuite":                                           "other",
	} {
		if got := packageGroup(fn); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: mb
Type: cpu
Showing nodes accounting for 1.25s, 100% of 1.25s total
      flat  flat%   sum%        cum   cum%
     0.55s 44.00% 44.00%      0.55s 44.00%  runtime.memmove
     500ms 40.00% 84.00%      0.60s 48.00%  morpheus/internal/serial.isSep (inline)
     200ms 16.00%   100%      0.20s 16.00%  morpheus/internal/serial.isSep
         0     0%   100%      1.25s   100%  main.main
`)
	flat, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"runtime.memmove":                         550 * time.Millisecond,
		"morpheus/internal/serial.isSep (inline)": 500 * time.Millisecond,
		"morpheus/internal/serial.isSep":          200 * time.Millisecond,
		"main.main":                               0,
	}
	for fn, d := range want {
		if flat[fn] != d {
			t.Errorf("flat[%q] = %v, want %v", fn, flat[fn], d)
		}
	}
	if _, err := parseTop([]byte("no table\n")); err == nil {
		t.Error("parseTop accepted output without a sample table")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 4, Name: "c", Start: 80 * ms, End: 130 * ms}, // covers its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"rep": 40 * ms, "a": 30 * ms, "b": 30 * ms, "c": 50 * ms}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}

	rec := newSpanRecorder()
	root := rec.begin("rep")
	for i := 0; i < 50; i++ {
		h := rec.begin("child")
		rec.end(h)
	}
	rec.end(root)
	for name, d := range selfTimes(rec.spans) {
		if d < 0 {
			t.Errorf("span %s has negative self time %v", name, d)
		}
	}
}

func TestNearestRank(t *testing.T) {
	wiki := []int64{15, 20, 35, 40, 50}
	for p, want := range map[float64]int64{5: 15, 30: 20, 40: 20, 50: 35, 100: 50} {
		if got := nearestRank(wiki, p); got != want {
			t.Errorf("nearestRank(%v, %v) = %d, want %d", wiki, p, got, want)
		}
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{1: 1, 50: 50, 99: 99, 99.5: 100, 100: 100} {
		if got := nearestRank(hundred, p); got != want {
			t.Errorf("nearestRank(1..100, %v) = %d, want %d", p, got, want)
		}
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// prints, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, gated)
	check("per_layer", spec.PerLayer, perLayer)
}
