// Package trace records simulated-time event spans from the hardware
// models — NVMe commands, StorageApp execution slots, DMA transfers,
// host-side waits — and renders them as a per-track timeline. It exists
// for observability: when a pipeline does not overlap the way a figure
// expects, the timeline shows which unit serialized.
//
// Events carry causal span IDs: the host runtime allocates a span when it
// submits an NVMe command, and every device-side event that command causes
// (firmware parse, FTL translation, flash reads, StorageApp execution, DMA
// transfers) records that span as its parent. The Chrome trace-event
// exporter (ChromeStream) preserves the links, so a Perfetto flame view
// can attribute any device activity back to the submitting command.
//
// A recorded Event is a small pointer-free value: its track and name are
// interned Names and its detail a typed record formatted only on export,
// so the tail sampler buffers and discards spans without building strings
// and the GC never scans its buffers.
//
// A nil *Tracer is valid and records nothing, so the models can call it
// unconditionally. A non-nil Tracer is safe for concurrent use: exporters
// may read while multi-unit models record.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"morpheus/internal/units"
)

// SpanID identifies one causal span. Zero means "no span": an event
// recorded outside any command's causal chain (setup work, co-runners).
type SpanID uint64

// Event is one span on a track. It holds no pointers.
type Event struct {
	Track  Name // the unit: "nvme", "ssd.core1", "pcie", "host" ...
	Name   Name // what happened: "MREAD", "vm-exec", "dma-out" ...
	Detail Detail
	// Span is this event's own ID; Parent links it to the causing span
	// (for device-side events, the span the host allocated at command
	// submission). Either may be zero.
	Span   SpanID
	Parent SpanID
	Start  units.Time
	End    units.Time
}

// Duration returns the span length.
func (e Event) Duration() units.Duration { return e.End.Sub(e.Start) }

// Point reports whether the event is instantaneous (a marker, not a span).
func (e Event) Point() bool { return e.End == e.Start }

// Tracer accumulates events. The zero value is ready to use. All methods
// are safe for concurrent use (and on a nil receiver, where they record
// and return nothing).
type Tracer struct {
	mu     sync.Mutex
	events []Event
	// Cap bounds memory for long runs (0 = unlimited); once exceeded,
	// further events are dropped and Dropped counts them. Set it before
	// sharing the tracer across goroutines.
	Cap      int
	dropped  int64
	nextSpan uint64
	// sampler, when set, decides which events are kept (sample.go); sink,
	// when set, receives kept events instead of the in-memory buffer
	// (stream.go). recorded counts events offered, kept counts events
	// retained, sampledOut counts sampling discards adopted from children.
	sampler    *sampler
	sink       EventSink
	recorded   int64
	kept       int64
	sampledOut int64
}

// New returns a tracer bounded to cap events (0 = unbounded).
func New(cap int) *Tracer { return &Tracer{Cap: cap} }

// Span records one event under parent with a freshly allocated span ID
// and returns that ID, taking the lock once. IDs are issued sequentially,
// so a deterministic simulation produces identical traces run to run. A
// nil tracer records nothing and returns the zero span.
func (t *Tracer) Span(track, name Name, d Detail, parent SpanID, start, end units.Time) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextSpan++
	span := SpanID(t.nextSpan)
	t.record(Event{Track: track, Name: name, Detail: d,
		Span: span, Parent: parent, Start: start, End: end})
	return span
}

// record offers one event. With a sample policy installed the event may
// be buffered or discarded instead of kept; with a sink installed kept
// events stream out instead of accumulating. Caller holds t.mu.
func (t *Tracer) record(e Event) {
	t.recorded++
	if t.sampler == nil {
		t.keep(e)
		return
	}
	tree, self := t.sampler.offer(e)
	t.keepTree(tree)
	if self {
		t.keep(e)
	}
}

// keepTree keeps a tree the sampler flushed, in record order, and hands
// its buffer back for reuse. Caller holds t.mu.
func (t *Tracer) keepTree(tree []Event) {
	for _, e := range tree {
		t.keep(e)
	}
	t.sampler.recycle(tree)
}

// keep retains one sampled-in event: to the sink when streaming,
// otherwise to the in-memory buffer under Cap. Caller holds t.mu.
func (t *Tracer) keep(e Event) {
	if t.sink != nil {
		t.kept++
		t.sink.Emit(e)
		return
	}
	if t.Cap > 0 && len(t.events) >= t.Cap {
		t.dropped++
		return
	}
	t.kept++
	t.events = append(t.events, e)
}

// Adopt folds another tracer's events into t, renumbering their span IDs
// past t's so the two ID spaces never collide: o's span k becomes
// t.nextSpan + k, exactly the ID a shared tracer would have issued had
// o's events been recorded on t directly after t's. The parallel
// experiment runner gives each sweep point an isolated tracer and adopts
// them back in point order, which reproduces the sequential run's trace
// byte for byte. t's Cap applies at adoption (adopted events past it are
// dropped and counted), so per-point tracers should be unbounded. o is
// left unchanged. Adopted events bypass t's own sampler — the child
// already sampled them — and o's still-undecided buffered events are
// counted as sampled out (the point is over; they will never be decided).
// Safe on a nil receiver or source.
func (t *Tracer) Adopt(o *Tracer) {
	if t == nil || o == nil || t == o {
		return
	}
	o.mu.Lock()
	events := make([]Event, len(o.events))
	copy(events, o.events)
	spans := o.nextSpan
	dropped := o.dropped
	recorded := o.recorded
	sampledOut := o.sampledOut
	if o.sampler != nil {
		sampledOut += o.sampler.out + int64(o.sampler.pendingEvents)
	}
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	offset := SpanID(t.nextSpan)
	t.nextSpan += spans
	t.dropped += dropped
	t.recorded += recorded
	t.sampledOut += sampledOut
	for _, e := range events {
		if e.Span != 0 {
			e.Span += offset
		}
		if e.Parent != 0 {
			e.Parent += offset
		}
		t.keep(e)
	}
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped reports events lost to the cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns a copy of the recorded events sorted by start time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Tracks returns the distinct track names, sorted.
func (t *Tracer) Tracks() []string {
	seen := map[Name]bool{}
	var out []string
	for _, e := range t.Events() {
		if !seen[e.Track] {
			seen[e.Track] = true
			out = append(out, e.Track.String())
		}
	}
	sort.Strings(out)
	return out
}

// WriteGantt renders a coarse per-track utilization chart over the traced
// horizon: each track is a row of width cells, '#' where the track has at
// least one span in flight and '|' where it has only instantaneous point
// events. Span occupancy is half-open — a span [s, e) paints the cells it
// actually overlaps, so back-to-back spans do not double-paint the shared
// boundary cell and busy time is not overstated.
func (t *Tracer) WriteGantt(w io.Writer, width int) {
	events := t.Events()
	if len(events) == 0 || width <= 0 {
		return
	}
	var horizon units.Time
	for _, e := range events {
		if e.End > horizon {
			horizon = e.End
		}
	}
	if horizon == 0 {
		return
	}
	cell := func(x units.Time) int {
		i := int(int64(x) * int64(width) / int64(horizon))
		if i >= width {
			i = width - 1
		}
		return i
	}
	for _, name := range t.Tracks() {
		track := Intern(name)
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// Spans first, then point markers (which never overwrite busy
		// cells): a cell is '#' if any span overlaps it, '|' if only
		// instants land in it.
		for _, e := range events {
			if e.Track != track || e.Point() {
				continue
			}
			// Half-open [Start, End): the last occupied instant is End-1.
			for i := cell(e.Start); i <= cell(e.End-1); i++ {
				row[i] = '#'
			}
		}
		for _, e := range events {
			if e.Track != track || !e.Point() {
				continue
			}
			if i := cell(e.Start); row[i] != '#' {
				row[i] = '|'
			}
		}
		fmt.Fprintf(w, "%-14s |%s|\n", name, row)
	}
	fmt.Fprintf(w, "%-14s  0%*v\n", "", width, units.Duration(horizon))
}
