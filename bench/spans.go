package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer, timed on the host
// clock from the recorder's start.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Duration
	End    time.Duration
}

// spanRecorder keeps the program's own spans in memory until the traced
// repetition ends. It is used from one goroutine. A nil recorder records
// nothing, so untraced repetitions run the same code without it.
type spanRecorder struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans begun and not yet ended
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span as a child of the innermost open span and returns its
// handle for end.
func (r *spanRecorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Since(r.t0)})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the span begin returned; spans close innermost first.
func (r *spanRecorder) end(h int) {
	if r == nil {
		return
	}
	r.spans[h].End = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := parent.Start, parent.Start
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > hi {
			total += hi - lo
			lo, hi = start, end
		} else if end > hi {
			hi = end
		}
	}
	return total + hi - lo
}

// writeChromeSpans writes the spans as Chrome trace-event JSON, one
// complete ("X") event each, with the span and parent IDs as arguments.
func writeChromeSpans(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{s.Name, "X", us(s.Start), us(s.End - s.Start), 1, 1,
			map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
