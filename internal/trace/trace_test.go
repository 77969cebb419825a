package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"morpheus/internal/units"
)

// recordEvent offers e as recorded, with its caller-chosen span links:
// tests script and replay span IDs that Span would allocate itself.
func recordEvent(tr *Tracer, e Event) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.record(e)
}

// record records one span-less event, naming its track, name and detail
// by string.
func record(tr *Tracer, track, name, detail string, start, end units.Time) {
	recordEvent(tr, Event{Track: Intern(track), Name: Intern(name), Detail: Text(detail), Start: start, End: end})
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	record(tr, "a", "b", "c", 0, 1)
	if tr.Span(Intern("a"), Intern("b"), Detail{}, 0, 0, 1) != 0 {
		t.Fatal("nil tracer allocated a span")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestRecordAndOrdering(t *testing.T) {
	tr := New(0)
	record(tr, "nvme", "READ", "", 100, 200)
	record(tr, "ssd.core0", "storageapp", "", 50, 150)
	record(tr, "nvme", "MREAD", "", 50, 120)
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Start != 50 || ev[2].Start != 100 {
		t.Fatalf("not sorted: %+v", ev)
	}
	if ev[0].Duration() != 100 && ev[1].Duration() != 70 {
		t.Fatalf("durations wrong")
	}
	tracks := tr.Tracks()
	if len(tracks) != 2 || tracks[0] != "nvme" || tracks[1] != "ssd.core0" {
		t.Fatalf("tracks = %v", tracks)
	}
}

func TestCapDrops(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		record(tr, "t", "e", "", units.Time(i), units.Time(i+1))
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestGanttRendering(t *testing.T) {
	tr := New(0)
	record(tr, "cpu", "parse", "", 0, units.Time(50*units.Millisecond))
	record(tr, "ssd", "read", "", units.Time(50*units.Millisecond), units.Time(100*units.Millisecond))
	var sb strings.Builder
	tr.WriteGantt(&sb, 20)
	out := sb.String()
	if !strings.Contains(out, "cpu") || !strings.Contains(out, "ssd") {
		t.Fatalf("gantt missing tracks:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	cpuRow, ssdRow := lines[0], lines[1]
	// cpu busy in the first half, ssd in the second.
	if !strings.Contains(cpuRow, "#") || !strings.Contains(ssdRow, "#") {
		t.Fatalf("rows empty:\n%s", out)
	}
	if strings.Index(cpuRow, "#") > strings.Index(ssdRow, "#") {
		t.Fatalf("cpu should start before ssd:\n%s", out)
	}
	// Empty tracer renders nothing.
	var empty strings.Builder
	New(0).WriteGantt(&empty, 20)
	if empty.Len() != 0 {
		t.Fatal("empty gantt must render nothing")
	}
}

func TestConcurrentRecordAndSpans(t *testing.T) {
	tr := New(0)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Span(Intern("t"), Intern("e"), Detail{}, 0, units.Time(i), units.Time(i+1))
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("len = %d, want %d", tr.Len(), workers*per)
	}
	// Span IDs must be unique across goroutines.
	seen := make(map[SpanID]bool, workers*per)
	for _, e := range tr.Events() {
		if e.Span == 0 || seen[e.Span] {
			t.Fatalf("duplicate or zero span %d", e.Span)
		}
		seen[e.Span] = true
	}
}

func TestGanttHalfOpenSpans(t *testing.T) {
	// Two back-to-back spans: [0,50ms) then [50ms,100ms). With half-open
	// painting the first must not bleed into the cell where the second
	// starts, so each row covers exactly half the width.
	tr := New(0)
	record(tr, "a", "x", "", 0, units.Time(50*units.Millisecond))
	record(tr, "b", "y", "", units.Time(50*units.Millisecond), units.Time(100*units.Millisecond))
	var sb strings.Builder
	tr.WriteGantt(&sb, 40)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	rowA, rowB := lines[0], lines[1]
	if na, nb := strings.Count(rowA, "#"), strings.Count(rowB, "#"); na != nb {
		t.Fatalf("adjacent equal spans painted unevenly: %d vs %d cells\n%s", na, nb, sb.String())
	}
	if strings.LastIndex(rowA, "#") >= strings.Index(rowB, "#") {
		t.Fatalf("span a bleeds into span b's first cell:\n%s", sb.String())
	}
}

func TestGanttPointEvents(t *testing.T) {
	tr := New(0)
	record(tr, "a", "busy", "", 0, units.Time(40*units.Millisecond))
	record(tr, "a", "mark", "", units.Time(20*units.Millisecond), units.Time(20*units.Millisecond))
	record(tr, "a", "late", "", units.Time(80*units.Millisecond), units.Time(80*units.Millisecond))
	record(tr, "pad", "x", "", 0, units.Time(100*units.Millisecond))
	var sb strings.Builder
	tr.WriteGantt(&sb, 40)
	rowA := strings.SplitN(sb.String(), "\n", 2)[0]
	// Strip the row borders; what remains is the 40-cell area.
	cells := rowA[strings.Index(rowA, "|")+1 : strings.LastIndex(rowA, "|")]
	// The in-span point is hidden by the busy cell; the out-of-span one
	// renders as a tick.
	if !strings.Contains(cells, "|") {
		t.Fatalf("point event outside a span must render '|':\n%s", sb.String())
	}
	if strings.Index(cells, "|") < strings.LastIndex(cells, "#") {
		t.Fatalf("tick landed inside the span:\n%s", sb.String())
	}
}

// TestEventIsPointerFree guards the property that keeps the sampler's
// buffers out of the GC's scan: an Event holds no pointer, string, slice,
// map, interface, channel or func, at any depth.
func TestEventIsPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: trace.Event must stay pointer-free", path, ty.Kind())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
}

// discardSink counts emitted events and keeps none.
type discardSink struct{ n int }

func (d *discardSink) Emit(Event) { d.n++ }

// TestKeptSpanAllocsZero: recording a span the sampler keeps at once (a
// head-sample span, or one of an already-flagged tree) into a sink
// allocates nothing.
func TestKeptSpanAllocsZero(t *testing.T) {
	track, name := Intern("ssd.core0"), Intern("storageapp")
	d := Detail{Kind: textKind, Args: [3]int64{int64(Intern("x")), 1, 2}}

	head := New(0)
	head.SetSamplePolicy(SamplePolicy{Head: 1 << 30})
	sink := &discardSink{}
	head.SetSink(sink)
	if n := testing.AllocsPerRun(1000, func() { head.Span(track, name, d, 0, 10, 20) }); n != 0 {
		t.Errorf("head-kept span: %v allocs per record, want 0", n)
	}

	flagged := New(0)
	flagged.SetSamplePolicy(SamplePolicy{Latency: 1 << 40, KeepNames: []string{}})
	flagged.SetSink(sink)
	root := flagged.Span(track, name, d, 0, 0, 1)
	flagged.Flag(root)
	if n := testing.AllocsPerRun(1000, func() { flagged.Span(track, name, d, root, 10, 20) }); n != 0 {
		t.Errorf("span of a flagged tree: %v allocs per record, want 0", n)
	}
	if sink.n == 0 {
		t.Fatal("no span reached the sink")
	}
}

func TestTextDetail(t *testing.T) {
	if Text("") != (Detail{}) {
		t.Error("an empty text detail must be the zero detail")
	}
	for _, s := range []string{"path=host", "a<\"b\">\\\n", "ünï"} {
		if got := Text(s).String(); got != s {
			t.Errorf("Text(%q) formats as %q", s, got)
		}
	}
	if Intern("") != 0 || Name(0).String() != "" {
		t.Error("the zero Name must be the empty string")
	}
}
