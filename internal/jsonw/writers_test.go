package jsonw_test

import (
	"io"
	"testing"

	"morpheus/internal/jsonw"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// TestWritersUseFields holds the production writers' Fields to the depth
// they are written at: a Field built for the wrong depth still writes the
// right bytes, so the golden digests cannot catch one, but it loses the
// pre-encoded path and counts a fallback. The registry and trace cover
// every Field the series, metrics and Chrome trace writers use.
func TestWritersUseFields(t *testing.T) {
	before := jsonw.FieldFallbacks()

	reg := stats.NewRegistry()
	reg.EnableSeries(1000)
	reg.AddSLO(stats.SLOConfig{Name: "gold", Metric: "lat", TargetPS: 50, Budget: 0.1})
	lat, gauge, timed := reg.Latency("lat"), reg.Sampler("depth"), reg.TimedCounter("timed")
	for i := int64(0); i < 40; i++ {
		lat.Observe(i*100, 10+i*3)
		gauge.Sample(i*100, float64(i)/3)
		timed.Add(i*100, 1)
		reg.Counters().Add("raw", 2)
	}
	for _, write := range []func(io.Writer) error{reg.WriteSeriesJSON, reg.WriteJSON} {
		if err := write(io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	tr := trace.New(0)
	stream := trace.NewChromeStream(io.Discard)
	tr.SetSink(stream)
	track, name := trace.Intern("ssd0.nvme"), trace.Intern("MREAD")
	root := tr.Span(track, name, trace.Text("root"), 0, 0, units.Time(1_500_000))
	tr.Span(track, name, trace.Detail{}, root, units.Time(250_000), units.Time(250_000))
	tr.Span(trace.Intern("host"), name, trace.Detail{}, 0, 0, units.Time(7))
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}

	if n := jsonw.FieldFallbacks() - before; n != 0 {
		t.Fatalf("%d Field calls fell back to Key: a writer's Fields no longer match its nesting", n)
	}
}
