package exp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// registryRun returns the named experiment's runner from Experiments().
func registryRun(t *testing.T, name string) func(Options) ([]*Table, error) {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			return e.Run
		}
	}
	t.Fatalf("no experiment %q in the registry", name)
	return nil
}

// parallelCases are the experiments the byte-identity guarantee is
// checked against: the per-application evaluation (three modes per
// point, P2P included, and rows that depend on per-run system state),
// the fault campaign (whose rows depend on hash-derived fault injection
// and per-scenario mutation), the cache and submission sweeps, and the
// array. Each row runs the registry entry named exp (name when empty).
// An entry with several tables can name them in tables: each table then
// gets its own subtest, <table>/seed=N, so a divergence names its figure.
var parallelCases = []struct {
	name   string
	exp    string
	heavy  bool
	array  ArraySweep
	tables []string
}{
	{name: "apps", tables: appsFigures},
	{name: "faults", heavy: true},
	{name: "cachesweep"},
	{name: "serve"},
	// Every array point runs its shards through the parallel shard
	// executor on slots from the same worker budget, so the point fan-out
	// and the shard fan-out must compose byte-identically.
	{name: "array", array: ArraySweep{Tenants: 64, Requests: 48, Objects: 8}},
	// The 8-shard slice: each point wants seven extra shard slots, so at
	// -parallel 8 the two points contend for the budget and get uneven,
	// run-dependent slot counts that still must not change a byte.
	{name: "array-shardpar", exp: "array",
		array: ArraySweep{Shards: 8, Replicas: 2, Tenants: 64, Requests: 48, Objects: 8}},
}

// appsFigures names the apps entry's tables in the order Tables renders
// them.
var appsFigures = []string{"fig2", "fig8", "fig9", "fig10", "traffic", "endtoend"}

// renderTables concatenates an experiment's rendered tables.
func renderTables(tables []*Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		tb.Render(&sb)
	}
	return sb.String()
}

// observedRun executes one experiment with a tracer and registry wired in
// and returns its tables, the metrics JSON, the series JSON (nil
// unless o.MetricsWindow is set), and the trace events.
func observedRun(t *testing.T, run func(Options) ([]*Table, error), o Options) ([]*Table, []byte, []byte, []trace.Event) {
	t.Helper()
	o.Trace = trace.New(0)
	o.Metrics = stats.NewRegistry()
	tables, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := o.Metrics.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var series bytes.Buffer
	if o.MetricsWindow > 0 {
		if err := o.Metrics.WriteSeriesJSON(&series); err != nil {
			t.Fatal(err)
		}
	}
	return tables, js.Bytes(), series.Bytes(), o.Trace.Events()
}

// TestParallelMatchesSequential is the contract the -parallel flag
// advertises: for every experiment and seed, a run fanned across 8
// workers renders the same table, emits the same metrics JSON byte for
// byte, and collects the same trace events (span IDs included) as the
// sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	seeds := []int64{20160618, 7, 424242}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tc := range parallelCases {
		name := tc.exp
		if name == "" {
			name = tc.name
		}
		run := registryRun(t, name)
		for _, seed := range seeds {
			if tc.heavy && testing.Short() {
				t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
					t.Skip("fault campaign is the suite's heaviest experiment")
				})
				continue
			}
			o := testOptions()
			// Byte-identity is scale-independent; the smallest inputs
			// keep the experiment × seed × 2-run matrix affordable under
			// -race.
			o.Scale = 1.0 / 8192
			o.Seed = seed
			o.Array = tc.array

			o.Parallel = 1
			seqTables, seqJSON, _, seqEvents := observedRun(t, run, o)
			o.Parallel = 8
			parTables, parJSON, _, parEvents := observedRun(t, run, o)

			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				if tc.tables == nil {
					if seq, par := renderTables(seqTables), renderTables(parTables); seq != par {
						t.Errorf("table diverged:\nsequential:\n%s\nparallel:\n%s", seq, par)
					}
				}
				if !bytes.Equal(seqJSON, parJSON) {
					t.Errorf("metrics JSON diverged:\nsequential:\n%s\nparallel:\n%s", seqJSON, parJSON)
				}
				if !reflect.DeepEqual(seqEvents, parEvents) {
					t.Errorf("trace diverged: %d sequential events vs %d parallel",
						len(seqEvents), len(parEvents))
				}
			})
			if tc.tables != nil && (len(seqTables) != len(tc.tables) || len(parTables) != len(tc.tables)) {
				t.Fatalf("%s rendered %d/%d tables, want %d", tc.name, len(seqTables), len(parTables), len(tc.tables))
			}
			for i, table := range tc.tables {
				t.Run(fmt.Sprintf("%s/seed=%d", table, seed), func(t *testing.T) {
					if seq, par := seqTables[i].String(), parTables[i].String(); seq != par {
						t.Errorf("table diverged:\nsequential:\n%s\nparallel:\n%s", seq, par)
					}
				})
			}
		}
	}
}

// telemetryArtifacts is everything one telemetry-enabled run produces
// that the byte-identity contract covers.
type telemetryArtifacts struct {
	table   string
	metrics []byte // WriteJSON, including the SLO summary
	series  []byte // WriteSeriesJSON
	events  []trace.Event
	tracer  *trace.Tracer
}

// observedTelemetryRun executes one experiment with windowed telemetry,
// SLO tracking, and tail-sampled tracing all enabled, and captures every
// artifact.
func observedTelemetryRun(t *testing.T, run func(Options) ([]*Table, error), o Options) telemetryArtifacts {
	t.Helper()
	o.Trace = trace.New(0)
	o.Trace.SetSamplePolicy(trace.SamplePolicy{
		Head:       32,
		Latency:    50 * units.Microsecond,
		MaxPending: 512,
	})
	o.Metrics = stats.NewRegistry()
	tables, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	a := telemetryArtifacts{table: renderTables(tables), events: o.Trace.Events(), tracer: o.Trace}
	var buf bytes.Buffer
	if err := o.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	a.metrics = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := o.Metrics.WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	a.series = append([]byte(nil), buf.Bytes()...)
	return a
}

// diffTelemetry compares two runs' artifacts byte for byte.
func diffTelemetry(t *testing.T, label string, a, b telemetryArtifacts) {
	t.Helper()
	if a.table != b.table {
		t.Errorf("%s: table diverged:\n%s\nvs:\n%s", label, a.table, b.table)
	}
	for _, art := range []struct {
		name string
		x, y []byte
	}{
		{"metrics JSON", a.metrics, b.metrics},
		{"timeseries JSON", a.series, b.series},
	} {
		if !bytes.Equal(art.x, art.y) {
			t.Errorf("%s: %s diverged (%d vs %d bytes)", label, art.name, len(art.x), len(art.y))
		}
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("%s: sampled trace diverged: %d vs %d events", label, len(a.events), len(b.events))
	}
}

// TestParallelTelemetryMatchesSequential extends the byte-identity
// contract to the windowed-telemetry artifacts: with time series, SLO
// tracking, and tail-sampled tracing all on, a parallel run must emit
// the same timeseries JSON, the same SLO summary, and
// the same sampled trace (span IDs included) as the sequential run.
func TestParallelTelemetryMatchesSequential(t *testing.T) {
	seeds := []int64{20160618, 99}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range []string{"apps", "multiprog"} {
		run := registryRun(t, name)
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				o := testOptions()
				o.Scale = 1.0 / 8192
				o.Seed = seed
				o.MetricsWindow = 100 * units.Microsecond
				o.SLOs = []stats.SLOConfig{
					{Name: "*", Metric: "nvme.MREAD.latency_ps",
						TargetPS: int64(40 * units.Microsecond), Budget: 0.05},
					{Name: "pagerank", Metric: "phase." + stats.PhaseDeserialize.String() + "_ps",
						TargetPS: int64(2 * units.Millisecond), Budget: 0.5},
				}

				o.Parallel = 1
				seq := observedTelemetryRun(t, run, o)
				o.Parallel = 8
				par := observedTelemetryRun(t, run, o)
				diffTelemetry(t, "parallel=8 vs sequential", seq, par)

				// The artifacts must actually carry the telemetry: windows
				// in the series, the SLO summary in the metrics JSON, and a
				// sampler that made at least one discard decision.
				if !bytes.Contains(seq.series, []byte(`"windows"`)) {
					t.Errorf("series JSON has no windows:\n%s", seq.series)
				}
				if !bytes.Contains(seq.metrics, []byte(`"slos"`)) {
					t.Errorf("metrics JSON has no SLO summary")
				}
				if seq.tracer.Recorded() == 0 || seq.tracer.SampledOut() == 0 {
					t.Errorf("sampler idle: recorded=%d sampledOut=%d",
						seq.tracer.Recorded(), seq.tracer.SampledOut())
				}
				if len(seq.events) == 0 {
					t.Errorf("sampled trace is empty")
				}
			})
		}
	}
}

// TestRunPointsOrderAndFold: results come back in point order regardless
// of completion order, and the per-point sinks fold in point order.
func TestRunPointsOrderAndFold(t *testing.T) {
	o := testOptions()
	o.Parallel = 4
	o.Metrics = stats.NewRegistry()
	o.Trace = trace.New(0)
	var mu sync.Mutex
	var foldOrder []int64
	// The gauge's `last` is the most recent fold's value, so sampling the
	// point index and reading it back after every merge exposes the order.
	vals, err := runPoints(o, 16, func(i int, po Options) (int, error) {
		po.Metrics.TimedCounter("points").Add(0, 1)
		po.Metrics.Sampler("order").Sample(int64(i), float64(i))
		po.Trace.Span(trace.Intern("t"), trace.Intern("p"), trace.Detail{}, 0, 0, 1)
		mu.Lock()
		foldOrder = append(foldOrder, int64(i))
		mu.Unlock()
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
	if got := o.Metrics.Counters().Get("points"); got != 16 {
		t.Fatalf("folded %d points, want 16", got)
	}
	if last := o.Metrics.Gauge("order").Last(); last != 15 {
		t.Fatalf("gauge last = %v: points folded out of order", last)
	}
	// Adopted spans are renumbered to the sequential 1..16.
	evs := o.Trace.Events()
	if len(evs) != 16 {
		t.Fatalf("adopted %d events, want 16", len(evs))
	}
	seen := map[trace.SpanID]bool{}
	for _, e := range evs {
		if e.Span < 1 || e.Span > 16 || seen[e.Span] {
			t.Fatalf("span IDs not the sequential 1..16: %+v", evs)
		}
		seen[e.Span] = true
	}
}

// TestRunPointsLowestError: when several points fail, the error reported
// is the one the sequential loop would have hit first.
func TestRunPointsLowestError(t *testing.T) {
	o := testOptions()
	o.Parallel = 8
	boom := func(i int) error { return fmt.Errorf("point %d failed", i) }
	_, err := runPoints(o, 12, func(i int, po Options) (int, error) {
		if i >= 3 {
			return 0, boom(i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 3 failed" {
		t.Fatalf("err = %v, want the lowest-index failure (point 3)", err)
	}
}

// TestRunPointsSequentialIsolation: a one-worker pool derives the same
// isolated per-point sinks a wider pool does (identical float grouping is
// what makes worker counts byte-equivalent) and folds them back; with no
// sinks configured, the caller's Options pass through untouched.
func TestRunPointsSequentialIsolation(t *testing.T) {
	o := testOptions()
	o.Parallel = 1
	o.Metrics = stats.NewRegistry()
	shared := o.Metrics
	var sawShared int32
	_, err := runPoints(o, 3, func(i int, po Options) (int, error) {
		if po.Metrics == shared {
			atomic.AddInt32(&sawShared, 1)
		}
		po.Metrics.TimedCounter("n").Add(0, 1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawShared != 0 {
		t.Fatalf("sequential path leaked the shared registry into %d/3 points", sawShared)
	}
	if got := shared.Counters().Get("n"); got != 3 {
		t.Fatalf("sequential fold lost points: n=%d, want 3", got)
	}

	bare := testOptions()
	bare.Parallel = 1
	_, err = runPoints(bare, 2, func(i int, po Options) (int, error) {
		if po.Metrics != nil || po.Trace != nil {
			t.Errorf("point %d grew sinks the caller never configured", i)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunPointsEmpty: a zero-point sweep is a no-op, not a hang.
func TestRunPointsEmpty(t *testing.T) {
	vals, err := runPoints(testOptions(), 0, func(i int, po Options) (int, error) {
		return 0, errors.New("must not run")
	})
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty sweep: vals=%v err=%v", vals, err)
	}
}
