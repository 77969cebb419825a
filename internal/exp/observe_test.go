package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// TestOptionsObservability wires a tracer and a registry through an
// experiment the way morpheusbench does and checks both collect across
// every run the experiment makes.
func TestOptionsObservability(t *testing.T) {
	o := testOptions()
	o.Trace = trace.New(1 << 18)
	o.Metrics = stats.NewRegistry()
	if _, err := RunApps(o); err != nil {
		t.Fatal(err)
	}
	if o.Trace.Len() == 0 {
		t.Fatal("experiment ran with a tracer attached but recorded nothing")
	}
	// Setup I/O must not leak in: the trace attaches after staging, so no
	// flash program event may predate a host submission... simplest proxy:
	// the host submit track exists and MREAD commands appear.
	tracks := o.Trace.Tracks()
	joined := strings.Join(tracks, ",")
	for _, want := range []string{"host", "nvme", "ssd.core", "flash.ch"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q track in %v", want, tracks)
		}
	}
	// The aggregate registry saw both the baseline READs and the Morpheus
	// train, across all apps.
	if o.Metrics.Histogram("nvme.MREAD.latency_ps").Count() == 0 {
		t.Error("aggregated metrics missing MREAD latencies")
	}
	if o.Metrics.Histogram("nvme.READ.latency_ps").Count() == 0 {
		t.Error("aggregated metrics missing baseline READ latencies")
	}
	if o.Metrics.Counters().Get(stats.NVMeCommands) == 0 {
		t.Error("aggregated counters empty")
	}
	// And the whole thing exports.
	var buf bytes.Buffer
	if err := o.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Histograms map[string]struct {
			P50 int64 `json:"p50"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("metrics export is not JSON: %v", err)
	}
	if h, ok := got.Histograms["nvme.MREAD.latency_ps"]; !ok || h.P50 <= 0 {
		t.Errorf("metrics export MREAD summary = %+v (present %v), want a positive p50", h, ok)
	}
}

// TestObservabilityOffByDefault: a nil Trace/Metrics must cost nothing
// and change nothing.
func TestObservabilityOffByDefault(t *testing.T) {
	r1, err := RunApps(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions()
	o.Trace = trace.New(1 << 18)
	o.Metrics = stats.NewRegistry()
	r2, err := RunApps(o)
	if err != nil {
		t.Fatal(err)
	}
	// Observability is passive: identical tables with and without it.
	if a, b := renderTables(r1.Tables()), renderTables(r2.Tables()); a != b {
		t.Errorf("tables changed when observed:\n%s\nvs:\n%s", a, b)
	}
}

// TestTailSamplingSoak is the system-level arm of the tail sampler's
// bounded-memory claim: an apps run at 16x the suite's usual input scale
// pushes well over 10x the usual command volume through the tracer, yet
// the kept trace stays O(head + interesting + pending) instead of
// O(commands).
func TestTailSamplingSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-length run")
	}
	// Reference volume: the usual suite-scale apps run, fully traced.
	small := testOptions()
	small.Trace = trace.New(0)
	if _, err := RunApps(small); err != nil {
		t.Fatal(err)
	}
	smallVol := small.Trace.Recorded()

	o := testOptions()
	o.Scale = 1.0 / 64 // 16x the suite scale
	o.Trace = trace.New(0)
	// The latency threshold sits above even a whole MREAD train's device
	// time, so (fault-free) trees are uninteresting and the kept set is
	// dominated by the head sample — the worst case for the memory bound.
	o.Trace.SetSamplePolicy(trace.SamplePolicy{
		Head:       256,
		Latency:    10 * units.Second,
		MaxPending: 2048,
	})
	o.Metrics = stats.NewRegistry()
	o.MetricsWindow = 100 * units.Microsecond
	if _, err := RunApps(o); err != nil {
		t.Fatal(err)
	}
	recorded, kept, out := o.Trace.Recorded(), int64(o.Trace.Len()), o.Trace.SampledOut()
	if recorded < 10*smallVol {
		t.Fatalf("soak recorded %d events, want >=10x the usual apps volume (%d)", recorded, smallVol)
	}
	// Bounded memory: the kept trace is a sliver of what was offered.
	if kept > recorded/10 {
		t.Errorf("sampler kept %d of %d events — not bounded", kept, recorded)
	}
	// Conservation: every offered event was kept, discarded, or abandoned
	// with its undecided tree at adoption (counted as sampled out).
	if recorded != kept+out {
		t.Errorf("event accounting leaks: recorded %d != kept %d + sampled out %d", recorded, kept, out)
	}
}

// TestMultiprogCounterAggregation: the multiprog experiment folds every
// tenant's counters into one read-only snapshot.
func TestMultiprogCounterAggregation(t *testing.T) {
	r, err := RunMultiprog(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Get(stats.NVMeCommands) == 0 {
		t.Error("aggregated tenant counters missing NVMe commands")
	}
	if r.Counters.Bytes(stats.PCIeHostBytes) == 0 {
		t.Error("aggregated tenant counters missing PCIe bytes")
	}
}
