package sim

import (
	"container/heap"

	"morpheus/internal/units"
)

// engineKind names the event-queue implementation behind a test engine.
type engineKind int

const (
	engineWheel engineKind = iota // the production time wheel
	engineHeap                    // the reference heap below
)

// String names the kind (and so the per-kind subtest).
func (k engineKind) String() string {
	if k == engineHeap {
		return "heap"
	}
	return "wheel"
}

// newEngineKind returns an engine backed by the chosen queue. Both kinds
// obey the same fire-order contract: (time, scheduling seq).
func newEngineKind(clock *Clock, kind engineKind) *Engine {
	if kind == engineHeap {
		return &Engine{clock: clock, q: &heapQueue{}}
	}
	return NewEngine(clock)
}

// heapQueue is the binary-heap event queue the engine shipped with before
// the time wheel. It is retained as the reference implementation: the
// differential scheduler battery and FuzzEngineSchedule replay every
// script against it as the fire-order oracle.
type heapQueue struct {
	h eventHeap
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among same-time events
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.idx = int32(len(*h))
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

func (q *heapQueue) len() int { return len(q.h) }

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popAtMost(limit units.Time) *Event {
	if len(q.h) == 0 || q.h[0].at > limit {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) remove(ev *Event) bool {
	if ev.idx < 0 || int(ev.idx) >= len(q.h) || q.h[ev.idx] != ev {
		return false
	}
	heap.Remove(&q.h, int(ev.idx))
	return true
}

func (q *heapQueue) reset(recycle func(*Event)) {
	for i, ev := range q.h {
		q.h[i] = nil
		ev.idx = -1
		recycle(ev)
	}
	q.h = q.h[:0]
}
