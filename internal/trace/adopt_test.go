package trace

import (
	"reflect"
	"testing"

	"morpheus/internal/units"
)

// recordPoint simulates one sweep point's worth of causally-linked events
// on tr: a parent span and a child span per step.
func recordPoint(tr *Tracer, steps int, base units.Time) {
	for i := 0; i < steps; i++ {
		t0 := base.Add(units.Duration(i * 10))
		parent := tr.Span(Intern("host"), Intern("submit"), Detail{}, 0, t0, t0.Add(2))
		tr.Span(Intern("ssd"), Intern("exec"), Detail{}, parent, t0.Add(2), t0.Add(8))
	}
}

// TestAdoptReproducesSequentialTrace is the determinism contract the
// parallel runner relies on: recording points on isolated tracers and
// adopting them in point order yields exactly the events (span IDs
// included) a single shared tracer would have recorded sequentially.
func TestAdoptReproducesSequentialTrace(t *testing.T) {
	shared := New(0)
	recordPoint(shared, 2, 0)
	recordPoint(shared, 3, 1000)

	p0, p1 := New(0), New(0)
	recordPoint(p0, 2, 0)
	recordPoint(p1, 3, 1000)
	folded := New(0)
	folded.Adopt(p0)
	folded.Adopt(p1)

	if !reflect.DeepEqual(shared.Events(), folded.Events()) {
		t.Fatalf("adopted trace diverges from sequential:\n%v\nvs\n%v", folded.Events(), shared.Events())
	}
	// Future span allocation continues past the adopted IDs.
	next := func(tr *Tracer) SpanID { return tr.Span(Intern("host"), Intern("next"), Detail{}, 0, 0, 0) }
	if s, f := next(shared), next(folded); s != f {
		t.Fatalf("next span after adoption: %d vs sequential %d", f, s)
	}
}

func TestAdoptRespectsCap(t *testing.T) {
	dst := New(3)
	src := New(0)
	recordPoint(src, 4, 0) // 8 events
	dst.Adopt(src)
	if dst.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", dst.Len())
	}
	if dst.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", dst.Dropped())
	}
	// The source is unchanged.
	if src.Len() != 8 || src.Dropped() != 0 {
		t.Fatalf("source mutated: len=%d dropped=%d", src.Len(), src.Dropped())
	}
}

func TestAdoptCarriesDropCounts(t *testing.T) {
	src := New(1)
	recordPoint(src, 2, 0) // 1 kept, 3 dropped at the source cap
	dst := New(0)
	dst.Adopt(src)
	if dst.Dropped() != 3 {
		t.Fatalf("dropped = %d, want the source's 3", dst.Dropped())
	}
}

func TestAdoptNilAndSelf(t *testing.T) {
	var nilT *Tracer
	nilT.Adopt(New(0)) // must not panic
	tr := New(0)
	record(tr, "a", "x", "", 0, 1)
	tr.Adopt(nil)
	tr.Adopt(tr)
	if tr.Len() != 1 {
		t.Fatalf("self/nil adoption changed the tracer: len=%d", tr.Len())
	}
}

func TestAdoptZeroSpansStayZero(t *testing.T) {
	src := New(0)
	src.Span(Intern("a"), Intern("linked"), Detail{}, 0, 0, 1) // shift the offset so renumbering would be visible
	record(src, "a", "unlinked", "", 0, 1)
	dst := New(0)
	dst.Span(Intern("a"), Intern("linked"), Detail{}, 0, 0, 1)
	dst.Adopt(src)
	evs := dst.Events()
	if e := evs[2]; e.Name != Intern("unlinked") || e.Span != 0 || e.Parent != 0 {
		t.Fatalf("span-less event gained IDs: %+v", e)
	}
}
