package stats

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
)

// Name, integer and float pools for the export fuzzer. The names need
// every kind of JSON escaping; the values cover negatives, zeros, the
// float format's 'e' thresholds, -0, subnormals and NaN.
var (
	exportNames = []string{
		"nvme.MREAD.latency_ps", "a<b", "x&y", "y>z", `q"uote`, `back\slash`, "gold|lat",
		"ctl\x01\x1f", "ünïcödé", "bad\xffutf8", "line sep", "", "z",
	}
	exportInts   = []int64{0, -1, 1, 7, -1 << 40, 1 << 62, 123456789}
	exportFloats = []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20,
		5e-324, 2.2250738585072014e-308 / 3, 0.5, -3.25, 1.0 / 3,
	}
	exportBudgets = []float64{0.001, 0.1, 0.5, 1}
)

// buildExportRegistry turns fuzz bytes into a registry: the first bytes
// choose whether the series is on and its width, then each group of
// bytes is one observation, sample, counter write, SLO registration, or a
// histogram or gauge view resolved without a write (which exports as an
// empty metric). With nan set, one gauge sample is NaN.
func buildExportRegistry(data []byte, nan bool) *Registry {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	r := NewRegistry()
	if next()%2 == 1 {
		r.EnableSeries(int64(1 + next()*50))
	}
	for len(data) > 0 {
		op := next() % 7
		name := exportNames[next()%len(exportNames)]
		t := int64(next() * 37)
		i := exportInts[next()%len(exportInts)]
		f := exportFloats[next()%len(exportFloats)]
		switch op {
		case 0:
			r.TimedCounter(name).Add(t, i)
		case 1:
			r.Latency(name).Observe(t, i)
		case 2:
			r.Sampler(name).Sample(t, f)
		case 3:
			r.Histogram(name)
		case 4:
			r.Gauge(name)
		default:
			r.AddSLO(SLOConfig{
				Name: name, Metric: exportNames[next()%len(exportNames)],
				TargetPS: int64(1 + next()), Budget: exportBudgets[next()%len(exportBudgets)],
			})
		}
	}
	if nan {
		r.Sampler("nan.gauge").Sample(0, math.NaN())
	}
	return r
}

// sameExport runs the streaming writer and its encoding/json oracle on r
// and fails unless both return the same bytes, or both fail with
// *json.UnsupportedValueError.
func sameExport(t *testing.T, what string, r *Registry, write, oracle func(*Registry, io.Writer) error) {
	t.Helper()
	var got, want bytes.Buffer
	gerr := write(r, &got)
	werr := oracle(r, &want)
	if gerr != nil || werr != nil {
		var ue *json.UnsupportedValueError
		if !errors.As(gerr, &ue) || !errors.As(werr, &ue) {
			t.Fatalf("%s: writer error %v, oracle error %v", what, gerr, werr)
		}
		return
	}
	if got.String() != want.String() {
		t.Fatalf("%s differs from encoding/json:\ngot:\n%s\nwant:\n%s", what, got.String(), want.String())
	}
}

// FuzzExportJSON: WriteJSON and WriteSeriesJSON must emit exactly the
// bytes of the encoding/json renderers in oracle_test.go, for single
// registries and for a Merge of two, and a NaN gauge must fail both.
func FuzzExportJSON(f *testing.F) {
	f.Add([]byte{}, []byte{}, false)
	f.Add([]byte{1, 2}, []byte{}, false) // series on, no windows
	f.Add([]byte{1, 3, 2, 1, 4, 5, 1, 3, 0, 2, 9, 6, 2, 7, 7, 8, 1, 0, 3, 4, 3, 2, 2, 2},
		[]byte{0, 6, 3, 1, 2, 3, 1, 2, 0, 1, 1, 5, 4, 3, 2, 1}, false)
	f.Add([]byte{1, 9, 6, 0, 0, 0, 0, 0, 5, 2, 1, 2, 3, 4, 2, 11, 8, 3, 2, 1, 3, 7, 6, 5, 4, 3, 2, 1},
		[]byte{1, 9, 3, 4, 5, 6, 7, 8}, false)
	f.Add([]byte{1, 4, 3, 2, 20, 1, 1}, []byte{}, true)
	f.Add([]byte{0, 0, 5, 3, 1, 2, 3}, []byte{}, true)
	f.Fuzz(func(t *testing.T, a, b []byte, nan bool) {
		r := buildExportRegistry(a, nan)
		if len(b) > 0 {
			r.Merge(buildExportRegistry(b, false))
		}
		sameExport(t, "WriteJSON", r, (*Registry).WriteJSON, oracleWriteJSON)
		if r.SeriesWindow() > 0 {
			sameExport(t, "WriteSeriesJSON", r, (*Registry).WriteSeriesJSON, oracleWriteSeriesJSON)
		}
	})
}

// TestMergeAllocsIndependentOfWindows: folding a source into a receiver
// that already holds every window and metric allocates the same small
// amount whether the source has 100 series windows or 1,000. Merge adds
// straight from source to receiver; a per-window copy would show up as
// allocations growing with the window count.
func TestMergeAllocsIndependentOfWindows(t *testing.T) {
	allocs := func(windows int) float64 {
		src := NewRegistry()
		src.EnableSeries(10)
		src.AddSLO(SLOConfig{Name: "all", Metric: "lat", TargetPS: 50, Budget: 0.1})
		for i := 0; i < windows; i++ {
			at := int64(i * 10)
			src.TimedCounter("timed").Add(at, 1)
			src.Latency("lat").Observe(at, int64(i%100))
			src.Sampler("util").Sample(at, float64(i%7)/7)
		}
		dst := NewRegistry()
		dst.EnableSeries(10)
		dst.Merge(src) // warm: dst now holds every window, metric and SLO
		return testing.AllocsPerRun(10, func() { dst.Merge(src) })
	}
	small, large := allocs(100), allocs(1000)
	if small != large {
		t.Fatalf("Merge allocates %v times for 100 windows but %v for 1,000", small, large)
	}
}
