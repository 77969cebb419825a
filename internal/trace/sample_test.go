package trace

import (
	"testing"

	"morpheus/internal/units"
)

// rec is shorthand for recording one event on a tracer.
func rec(t *Tracer, track, name string, span, parent SpanID, start, end int64) {
	recordEvent(t, Event{Track: Intern(track), Name: Intern(name), Span: span, Parent: parent,
		Start: units.Time(start), End: units.Time(end)})
}

func eventNames(t *Tracer) []string {
	var out []string
	for _, e := range t.Events() {
		out = append(out, e.Name.String())
	}
	return out
}

func TestSampleHeadKeepsPrefix(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Head: 2, KeepNames: []string{}})
	rec(tr, "host", "a", 1, 0, 0, 10)
	rec(tr, "host", "b", 2, 0, 10, 20)
	rec(tr, "host", "c", 3, 0, 20, 30) // past head, uninteresting, buffered
	if got := eventNames(tr); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("head sample = %v", got)
	}
	if tr.Recorded() != 3 {
		t.Fatalf("recorded = %d", tr.Recorded())
	}
	if tr.PendingSampled() != 1 {
		t.Fatalf("pending = %d", tr.PendingSampled())
	}
}

func TestSampleLatencyKeepsWholeTree(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 100, KeepNames: []string{}})
	// Tree 1 (root 1): short events then one slow one — all kept, in
	// record order, flushed when the slow event arrives.
	rec(tr, "host", "submit", 1, 0, 0, 10)
	rec(tr, "ssd", "parse", 2, 1, 10, 20)
	// Tree 2 (root 9): all fast — dropped.
	rec(tr, "host", "submit2", 9, 0, 0, 5)
	rec(tr, "ssd", "parse2", 10, 9, 5, 10)
	// Tree 1's slow flash read triggers the keep.
	rec(tr, "flash", "read", 3, 1, 20, 200)
	// Later tree-1 events are kept as they arrive.
	rec(tr, "host", "complete", 4, 1, 200, 210)
	got := eventNames(tr)
	want := []string{"submit", "parse", "read", "complete"}
	if len(got) != len(want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept %v, want %v", got, want)
		}
	}
	if tr.PendingSampled() != 2 { // tree 2 still undecided
		t.Fatalf("pending = %d", tr.PendingSampled())
	}
}

func TestSampleKeepNamesAndDefault(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 1 << 40}) // KeepNames nil → default
	rec(tr, "host", "fallback", 5, 0, 0, 0)            // default marker name
	rec(tr, "host", "boring", 6, 0, 0, 1)
	got := eventNames(tr)
	if len(got) != 1 || got[0] != "fallback" {
		t.Fatalf("kept %v, want [fallback]", got)
	}
}

func TestSampleFlagFlushesAndFollows(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 1 << 40, KeepNames: []string{}})
	rec(tr, "host", "submit", 1, 0, 0, 10)
	rec(tr, "ssd", "parse", 2, 1, 10, 20)
	if tr.Len() != 0 {
		t.Fatalf("events kept before flag: %v", eventNames(tr))
	}
	tr.Flag(1) // e.g. the command timed out
	if got := eventNames(tr); len(got) != 2 {
		t.Fatalf("flag did not flush: %v", got)
	}
	rec(tr, "host", "retry", 3, 1, 20, 30)
	if got := eventNames(tr); len(got) != 3 || got[2] != "retry" {
		t.Fatalf("post-flag events not kept: %v", got)
	}
	// Flag on a nil tracer, zero span, unsampled tracer: all no-ops.
	var nilT *Tracer
	nilT.Flag(1)
	tr.Flag(0)
	New(0).Flag(1)
}

func TestSampleSpanlessEventsDecideAlone(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 100, KeepNames: []string{}})
	rec(tr, "host", "slow-setup", 0, 0, 0, 500)
	rec(tr, "host", "fast-setup", 0, 0, 0, 1)
	if got := eventNames(tr); len(got) != 1 || got[0] != "slow-setup" {
		t.Fatalf("kept %v", got)
	}
	if tr.SampledOut() != 1 || tr.PendingSampled() != 0 {
		t.Fatalf("out=%d pending=%d", tr.SampledOut(), tr.PendingSampled())
	}
}

func TestSamplePendingBound(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 1 << 40, KeepNames: []string{}, MaxPending: 8})
	for i := 1; i <= 1000; i++ {
		rec(tr, "host", "cmd", SpanID(i), 0, int64(i), int64(i)+1)
		rec(tr, "ssd", "work", SpanID(1000+i), SpanID(i), int64(i), int64(i)+1)
		if p := tr.PendingSampled(); p > 8 {
			t.Fatalf("pending %d exceeds bound", p)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("kept %d events, want 0", tr.Len())
	}
	if out := tr.SampledOut(); out < 1900 {
		t.Fatalf("sampled out only %d", out)
	}
}

// TestSampleFlaggedBound: the flagged set keeps only the most recent
// MaxPending roots, however many trees a run flags, and a forgotten tree
// is decided afresh.
func TestSampleFlaggedBound(t *testing.T) {
	const maxPending = 8
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 1 << 40, KeepNames: []string{"fallback"}, MaxPending: maxPending})
	for i := 1; i <= 10*maxPending; i++ {
		if i%2 == 0 {
			tr.Flag(SpanID(i))
		} else {
			rec(tr, "host", "fallback", SpanID(i), 0, int64(i), int64(i)+1)
		}
		if n := len(tr.sampler.flagged); n > maxPending {
			t.Fatalf("after %d flagged roots the set holds %d, want <= %d", i, n, maxPending)
		}
	}
	last := SpanID(10 * maxPending)
	for r := last - maxPending + 1; r <= last; r++ {
		if !tr.sampler.flagged[r] {
			t.Fatalf("recent root %d forgotten", r)
		}
	}
	kept := tr.Len()
	rec(tr, "ssd", "work", 1000, last, 0, 1) // a recent tree: kept
	rec(tr, "ssd", "work", 1001, 1, 0, 1)    // a forgotten tree: undecided
	if got := tr.Len() - kept; got != 1 || tr.PendingSampled() != 1 {
		t.Fatalf("kept %d new events, pending %d; want the recent tree's event kept and the old one's buffered",
			got, tr.PendingSampled())
	}
}

// TestSampleBoundedMemorySoak drives a synthetic million-event workload
// through the sampler: memory must stay O(head + interesting + pending),
// not O(events).
func TestSampleBoundedMemorySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Head: 100, Latency: 900, KeepNames: []string{}, MaxPending: 1024})
	const trees = 250000 // 4 events each = 1M events
	interesting := 0
	for i := 1; i <= trees; i++ {
		root := SpanID(i * 4)
		dur := int64(10)
		if i%1000 == 0 { // one slow tree per thousand
			dur = 1000
			interesting++
		}
		base := int64(i) * 100
		rec(tr, "host", "submit", root, 0, base, base+1)
		rec(tr, "ssd", "parse", root+1, root, base+1, base+2)
		rec(tr, "flash", "read", root+2, root, base+2, base+2+dur)
		rec(tr, "host", "complete", root+3, root, base+2+dur, base+3+dur)
	}
	if tr.Recorded() != 4*trees {
		t.Fatalf("recorded = %d", tr.Recorded())
	}
	kept := tr.Len()
	wantMax := 100 + 4*interesting + 1024
	if kept > wantMax {
		t.Fatalf("kept %d events, want ≤ %d (head+interesting+pending)", kept, wantMax)
	}
	if kept < 100+4*interesting {
		t.Fatalf("kept %d events, want ≥ %d", kept, 100+4*interesting)
	}
	if p := tr.PendingSampled(); p > 1024 {
		t.Fatalf("pending %d exceeds bound", p)
	}
}

func TestSampleChildInheritsPolicyAndAdoptBypasses(t *testing.T) {
	parent := New(0)
	parent.SetSamplePolicy(SamplePolicy{Latency: 100, KeepNames: []string{}})
	child := parent.Child()
	if got := child.SamplePolicy(); got.Latency != 100 {
		t.Fatalf("child policy = %+v", got)
	}
	// Child samples: keeps the slow tree, buffers the fast one.
	rec(child, "host", "slow", 1, 0, 0, 500)
	rec(child, "host", "fast", 2, 0, 0, 1)
	parent.Adopt(child)
	// The kept slow event survives adoption even though, renumbered, it
	// would look "new" to the parent's sampler — adoption must bypass it.
	if got := eventNames(parent); len(got) != 1 || got[0] != "slow" {
		t.Fatalf("parent kept %v", got)
	}
	// The child's undecided fast event is accounted as sampled out.
	if parent.SampledOut() != 1 {
		t.Fatalf("parent sampledOut = %d", parent.SampledOut())
	}
	if parent.Recorded() != 2 {
		t.Fatalf("parent recorded = %d", parent.Recorded())
	}
	// A nil parent yields a nil child; a child of an unsampled tracer has
	// no policy.
	var nilT *Tracer
	if nilT.Child() != nil {
		t.Fatal("nil.Child() != nil")
	}
	if p := New(0).Child().SamplePolicy(); p.Enabled() {
		t.Fatalf("unsampled child got policy %+v", p)
	}
}

func TestSampleDeterministicAcrossRuns(t *testing.T) {
	run := func() []Event {
		tr := New(0)
		tr.SetSamplePolicy(SamplePolicy{Head: 3, Latency: 50, KeepNames: []string{"fallback"}, MaxPending: 16})
		for i := 1; i <= 200; i++ {
			root := SpanID(i * 2)
			dur := int64(i%7) * 12 // some cross the threshold
			rec(tr, "host", "submit", root, 0, int64(i)*10, int64(i)*10+dur)
			if i%31 == 0 {
				rec(tr, "host", "fallback", root+1, root, int64(i)*10, int64(i)*10)
			}
		}
		return tr.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs kept %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestZeroPolicyDisablesSampling(t *testing.T) {
	tr := New(0)
	tr.SetSamplePolicy(SamplePolicy{Latency: 10})
	tr.SetSamplePolicy(SamplePolicy{}) // back off
	rec(tr, "host", "a", 1, 0, 0, 1)
	if tr.Len() != 1 {
		t.Fatalf("sampling still on: kept %d", tr.Len())
	}
}
