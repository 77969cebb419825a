package stats

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// scriptTarget is what a registry script drives: a Registry through
// handles resolved up front, a Registry through handles resolved per
// call, or the refRegistry model.
type scriptTarget interface {
	enableSeries(windowPS int64)
	addAt(name string, t, v int64)
	observe(name string, t, v int64)
	sample(name string, t int64, v float64)
	addSLO(cfg SLOConfig)
	reset()
	merge(o scriptTarget) // o is of the receiver's type
	write(series bool, w io.Writer) error
}

// runScript runs a registry script from data on a fresh target. The first
// bytes choose whether the series is on and its width, then each group of
// bytes is one operation: counter writes, latency observations and gauge
// samples at out-of-order times, SLO
// registrations, an occasional Reset, and a Merge of 1–4 sources built
// from the bytes that follow, folded in order.
func runScript(data []byte, fresh func() scriptTarget) scriptTarget {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	r := fresh()
	if next()%2 == 1 {
		r.enableSeries(int64(1 + next()*50))
	}
	for len(data) > 0 {
		op := next() % 7
		name := exportNames[next()%len(exportNames)]
		t := int64(next() * 37)
		i := exportInts[next()%len(exportInts)]
		f := exportFloats[next()%len(exportFloats)]
		switch op {
		case 0:
			r.addAt(name, t, i)
		case 1:
			r.observe(name, t, i)
		case 2:
			r.sample(name, t, f)
		case 3:
			if i%3 == 0 {
				r.reset()
			}
		case 4:
			for n := 1 + int(t)%4; n > 0; n-- {
				size := min(next()%16, len(data))
				r.merge(runScript(data[:size], fresh))
				data = data[size:]
			}
		default:
			r.addSLO(SLOConfig{
				Name: name, Metric: exportNames[next()%len(exportNames)],
				TargetPS: int64(1 + next()), Budget: exportBudgets[next()%len(exportBudgets)],
			})
		}
	}
	return r
}

// regScript drives a Registry. With handles set, every write goes through
// a handle resolved, for every name and kind, before the registry saw any
// other call, so a run also checks that resolving adds nothing to an
// artifact; without it, through a handle resolved per call.
type regScript struct {
	r       *Registry
	handles map[string]scriptHandles
}

type scriptHandles struct {
	timed TimedCounter
	lat   Latency
	gauge Sampler
}

func newRegScript(handles bool) scriptTarget {
	s := &regScript{r: NewRegistry()}
	if handles {
		s.handles = map[string]scriptHandles{}
		for _, n := range exportNames {
			s.handles[n] = scriptHandles{s.r.TimedCounter(n), s.r.Latency(n), s.r.Sampler(n)}
		}
	}
	return s
}

func (s *regScript) enableSeries(w int64) { s.r.EnableSeries(w) }

func (s *regScript) addAt(name string, t, v int64) {
	if h, ok := s.handles[name]; ok {
		h.timed.Add(t, v)
	} else {
		s.r.TimedCounter(name).Add(t, v)
	}
}

func (s *regScript) observe(name string, t, v int64) {
	if h, ok := s.handles[name]; ok {
		h.lat.Observe(t, v)
	} else {
		s.r.Latency(name).Observe(t, v)
	}
}

func (s *regScript) sample(name string, t int64, v float64) {
	if h, ok := s.handles[name]; ok {
		h.gauge.Sample(t, v)
	} else {
		s.r.Sampler(name).Sample(t, v)
	}
}

func (s *regScript) addSLO(cfg SLOConfig) { s.r.AddSLO(cfg) }
func (s *regScript) reset()               { s.r.Reset() }
func (s *regScript) merge(o scriptTarget) { s.r.Merge(o.(*regScript).r) }

func (s *regScript) write(series bool, w io.Writer) error {
	if series {
		return s.r.WriteSeriesJSON(w)
	}
	return s.r.WriteJSON(w)
}

// sameScriptArtifacts runs data on the refRegistry model, on a registry
// through handles resolved up front and on one through handles resolved
// per call, and fails unless both registries write the model's metrics
// and series bytes.
func sameScriptArtifacts(t *testing.T, data []byte) {
	t.Helper()
	model := runScript(data, func() scriptTarget { return newRefRegistry() })
	for _, handles := range []bool{true, false} {
		r := runScript(data, func() scriptTarget { return newRegScript(handles) })
		for _, series := range []bool{false, true} {
			var got, want bytes.Buffer
			gerr, werr := r.write(series, &got), model.write(series, &want)
			if (gerr == nil) != (werr == nil) || got.String() != want.String() {
				t.Fatalf("handles=%v series=%v: registry differs from the map-keyed model (errors %v, %v):\n%s\nwant:\n%s",
					handles, series, gerr, werr, got.String(), want.String())
			}
		}
	}
}

// FuzzRegistryHandles: a script written through resolved handles, or
// through handles resolved per call, emits byte for byte the artifacts of the
// map-keyed refRegistry model running the same script.
func FuzzRegistryHandles(f *testing.F) {
	for _, s := range handleScripts {
		f.Add(s)
	}
	f.Fuzz(sameScriptArtifacts)
}

// handleScripts seed the fuzzer and the table test: series on and off,
// out-of-order times, merges with several sources, a Reset between
// writes, SLOs registered after their metric's handle resolved, and
// histograms whose observations are all negative, observed directly and
// merged in.
var handleScripts = [][]byte{
	{},
	{1, 2},
	{0, 3, 0, 1, 2, 3, 4, 3, 2, 5, 6, 1, 1, 0, 1, 2, 3, 4},
	{1, 3, 3, 0, 9, 1, 0, 2, 0, 200, 3, 1, 3, 0, 10, 5, 0, 4, 1, 7, 2, 3},
	{1, 1, 8, 0, 1, 2, 3, 4, 5, 3, 0, 40, 2, 0, 3, 0, 2, 2, 2, 2, 2, 6, 1, 3, 1, 4, 5},
	{1, 9, 6, 2, 3, 3, 9, 3, 2, 1, 0, 12, 3, 2, 7, 1, 4, 5, 1, 2, 3, 1, 4, 0, 1, 4, 0, 2, 1, 9, 0, 1, 3},
	{1, 2, 5, 0, 0, 3, 0, 2, 0, 30, 3, 1, 1, 2, 0, 4, 0, 9, 3, 0, 5, 1, 1, 3, 0, 1, 2, 3, 4, 5, 6, 7},
	{1, 2, 3, 0, 1, 1, 0, 3, 0, 4, 4, 0, 3, 1, 2, 1, 0, 6, 2, 0, 0, 0, 7, 1, 2, 3, 2, 5, 4, 0},
}

// TestRegistryHandlesMatchModel is FuzzRegistryHandles over its seeds and
// 200 seeded random scripts.
func TestRegistryHandlesMatchModel(t *testing.T) {
	for _, s := range handleScripts {
		sameScriptArtifacts(t, s)
	}
	rng := rand.New(rand.NewSource(20160618))
	for i := 0; i < 200; i++ {
		s := make([]byte, rng.Intn(300))
		rng.Read(s)
		sameScriptArtifacts(t, s)
	}
}

// TestObserveAllocsZero: with the series and an SLO on, observing,
// sampling and counting through handles in a window already touched
// allocates nothing — no name is built or hashed, and the window's entries
// are reached through the cached last cell.
func TestObserveAllocsZero(t *testing.T) {
	r := NewRegistry()
	r.EnableSeries(1000)
	r.AddSLO(SLOConfig{Name: "all", Metric: "lat", TargetPS: 50, Budget: 0.1})
	lat, gauge, timed := r.Latency("lat"), r.Sampler("util"), r.TimedCounter("timed")
	const at = 5*1000 + 10
	step := func() {
		lat.Observe(at, 42)
		gauge.Sample(at, 0.5)
		timed.Add(at, 1)
	}
	step() // opens window 5 and creates its entries
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("one observe, sample and add in an open window allocate %v times, want 0", allocs)
	}
}
