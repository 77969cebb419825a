package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeSeries parses a WriteSeriesJSON artifact for assertions.
func decodeSeries(t *testing.T, r *Registry) seriesFileJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f seriesFileJSON
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("series artifact is not JSON: %v\n%s", err, buf.String())
	}
	return f
}

func TestSeriesWindowAttribution(t *testing.T) {
	r := NewRegistry()
	r.EnableSeries(100)
	// Two observations in window 0, one in window 2 (window 1 stays empty).
	r.Latency("lat").Observe(10, 5)
	r.Latency("lat").Observe(90, 15)
	r.Latency("lat").Observe(250, 40)
	r.Sampler("util").Sample(50, 0.5)
	r.Sampler("util").Sample(260, 1.0)
	f := decodeSeries(t, r)
	if f.WindowPS != 100 {
		t.Fatalf("window_ps = %d, want 100", f.WindowPS)
	}
	if len(f.Windows) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(f.Windows), f.Windows)
	}
	w0, w2 := f.Windows[0], f.Windows[1]
	if w0.StartPS != 0 || w0.EndPS != 100 || w2.StartPS != 200 || w2.EndPS != 300 {
		t.Fatalf("window boundaries wrong: %+v %+v", w0, w2)
	}
	if h := w0.Histograms["lat"]; h.Count != 2 || h.Sum != 20 || h.Min != 5 || h.Max != 15 {
		t.Fatalf("window 0 hist = %+v, want count 2 sum 20 min 5 max 15", h)
	}
	want := seriesHistJSON{Count: 1, Sum: 40, Min: 40, Max: 40, P50: 40, P95: 40, P99: 40}
	if h := w2.Histograms["lat"]; h != want {
		t.Fatalf("window 2 hist = %+v, want %+v", h, want)
	}
	if g := w0.Gauges["util"]; g != (gaugeJSON{Samples: 1, Last: 0.5, Min: 0.5, Max: 0.5, Mean: 0.5}) {
		t.Fatalf("window 0 gauge = %+v", g)
	}
	// The cumulative histogram saw everything regardless of windows.
	if c := r.Histogram("lat").Count(); c != 3 {
		t.Fatalf("cumulative count = %d, want 3", c)
	}
	// Emitting again from the same registry gives the same bytes.
	var a, b bytes.Buffer
	if err := r.WriteSeriesJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSeriesJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("series emission not deterministic:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

func TestSeriesCounterDeltas(t *testing.T) {
	r := NewRegistry()
	r.EnableSeries(100)
	// Models bump the raw counter set without timestamps; the timed
	// records carry the clock that closes windows.
	r.Counters().Add("cmds", 3)
	r.Latency("lat").Observe(50, 1) // still window 0
	r.Counters().Add("cmds", 4)
	r.TimedCounter("retries").Add(150, 1) // crossing into window 1 closes window 0
	r.Counters().Add("cmds", 5)
	r.Latency("lat").Observe(450, 1) // crossing into window 4 closes window 1
	f := decodeSeries(t, r)
	byStart := map[int64]seriesWindowJSON{}
	for _, w := range f.Windows {
		byStart[w.StartPS] = w
	}
	if got := byStart[0].Counters["cmds"]; got != 7 {
		t.Fatalf("window 0 cmds delta = %d, want 7 (3 pre + 4 until boundary)", got)
	}
	if got := byStart[100].Counters["cmds"]; got != 5 {
		t.Fatalf("window 1 cmds delta = %d, want 5", got)
	}
	// A timed counter lands in t's own window, not the one open before it.
	if got := byStart[100].Counters["retries"]; got != 1 {
		t.Fatalf("window 1 retries = %d, want 1", got)
	}
	if got, ok := byStart[0].Counters["retries"]; ok {
		t.Fatalf("window 0 retries = %d, want none", got)
	}
	// Window deltas must sum to the cumulative counter.
	var sum int64
	for _, w := range f.Windows {
		sum += w.Counters["cmds"]
	}
	if sum != r.Counters().Get("cmds") {
		t.Fatalf("window deltas sum %d != cumulative %d", sum, r.Counters().Get("cmds"))
	}
}

func TestSeriesMergeAddsWindowWise(t *testing.T) {
	mk := func(base int64) *Registry {
		r := NewRegistry()
		r.EnableSeries(100)
		r.Latency("lat").Observe(10, base)
		r.Latency("lat").Observe(110, base*2)
		r.TimedCounter("c").Add(10, base)
		return r
	}
	agg := NewRegistry() // series config adopted from the first merge
	agg.Merge(mk(1))
	agg.Merge(mk(10))
	if agg.SeriesWindow() != 100 {
		t.Fatalf("aggregate did not adopt series window: %d", agg.SeriesWindow())
	}
	f := decodeSeries(t, agg)
	if len(f.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(f.Windows))
	}
	if h := f.Windows[0].Histograms["lat"]; h.Count != 2 || h.Sum != 11 {
		t.Fatalf("merged window 0 hist = %+v, want count 2 sum 11", h)
	}
	if h := f.Windows[1].Histograms["lat"]; h.Count != 2 || h.Sum != 22 {
		t.Fatalf("merged window 1 hist = %+v, want count 2 sum 22", h)
	}
	if c := f.Windows[0].Counters["c"]; c != 11 {
		t.Fatalf("merged window 0 counter = %d, want 11", c)
	}
	// Aggregate's own flush must not re-attribute merged counters.
	f2 := decodeSeries(t, agg)
	if c := f2.Windows[0].Counters["c"]; c != 11 {
		t.Fatalf("second emission changed counters: %d", c)
	}
}

func TestSeriesMergeDeterministicBytes(t *testing.T) {
	run := func() string {
		agg := NewRegistry()
		for i := int64(1); i <= 4; i++ {
			p := NewRegistry()
			p.EnableSeries(50)
			p.Latency("a.lat").Observe(i*30, i)
			p.Latency("b.lat").Observe(i*40, i*3)
			p.Sampler("g").Sample(i*25, float64(i)/2)
			p.Counters().Add("n", i)
			p.TimedCounter("m").Add(i*30, 1)
			agg.Merge(p)
		}
		var buf bytes.Buffer
		if err := agg.WriteSeriesJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("series emission not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestSeriesResetPreservesConfig(t *testing.T) {
	r := NewRegistry()
	r.EnableSeries(100)
	r.AddSLO(SLOConfig{Name: "t", Metric: "lat", TargetPS: 10, Budget: 0.1})
	r.Latency("lat").Observe(50, 99)
	r.Reset()
	if r.SeriesWindow() != 100 {
		t.Fatalf("Reset dropped series window: %d", r.SeriesWindow())
	}
	if got := r.SLOConfigs(); len(got) != 1 || got[0].Key() != "t|lat" {
		t.Fatalf("Reset dropped SLO config: %+v", got)
	}
	f := decodeSeries(t, r)
	if len(f.Windows) != 0 {
		t.Fatalf("Reset kept windows: %+v", f.Windows)
	}
	if f.SLOs["t|lat"].Total != 0 {
		t.Fatalf("Reset kept SLO counts: %+v", f.SLOs)
	}
	// Post-reset collection starts clean.
	r.Latency("lat").Observe(150, 5)
	f = decodeSeries(t, r)
	if len(f.Windows) != 1 || f.Windows[0].StartPS != 100 {
		t.Fatalf("post-reset windows wrong: %+v", f.Windows)
	}
}

func TestSeriesWritersDisabled(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	if err := r.WriteSeriesJSON(&buf); err != ErrNoSeries {
		t.Fatalf("WriteSeriesJSON on disabled series: %v, want ErrNoSeries", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteSeriesJSON on disabled series wrote %q", buf.String())
	}
}

func TestSchemaUnchangedWhenSeriesOff(t *testing.T) {
	// A default registry's JSON must not mention the new keys at all.
	r := NewRegistry()
	r.Histogram("h").Record(1)
	r.Counters().Add("c", 1)
	r.Gauge("g").Sample(1, 1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"slos", "series", "window"} {
		if strings.Contains(buf.String(), banned) {
			t.Fatalf("default JSON schema leaked %q:\n%s", banned, buf.String())
		}
	}
}
