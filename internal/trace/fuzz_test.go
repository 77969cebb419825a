package trace

import (
	"reflect"
	"testing"

	"morpheus/internal/units"
)

// refSampler is the tail sampler's reference model: the same policy
// decisions, but every kept tree is a freshly allocated slice and no
// buffer is ever reused, so a recycled buffer that aliases kept or
// pending events makes the two diverge. It remembers the most recent
// maxPending flagged roots in a plain FIFO slice.
type refSampler struct {
	policy        SamplePolicy
	keepNames     map[string]bool
	headLeft      int
	flagged       map[SpanID]bool
	flagOrder     []SpanID
	pending       map[SpanID][]Event
	order         []SpanID
	pendingEvents int
	maxPending    int
	out           int64
}

func newRefSampler(p SamplePolicy) *refSampler {
	names := p.KeepNames
	if names == nil {
		names = DefaultKeepNames
	}
	s := &refSampler{policy: p, keepNames: map[string]bool{}, headLeft: p.Head,
		flagged: map[SpanID]bool{}, pending: map[SpanID][]Event{}, maxPending: p.MaxPending}
	for _, n := range names {
		s.keepNames[n] = true
	}
	if s.maxPending <= 0 {
		s.maxPending = defaultMaxPending
	}
	return s
}

func (s *refSampler) offer(e Event) []Event {
	if s.headLeft > 0 {
		s.headLeft--
		return []Event{e}
	}
	root := e.Span
	if e.Parent != 0 {
		root = e.Parent
	}
	interesting := (s.policy.Latency > 0 && e.Duration() >= s.policy.Latency) || s.keepNames[e.Name.String()]
	if root == 0 {
		if interesting {
			return []Event{e}
		}
		s.out++
		return nil
	}
	if s.flagged[root] {
		return []Event{e}
	}
	if interesting {
		s.markFlagged(root)
		return append(s.take(root), e)
	}
	if len(s.pending[root]) == 0 {
		s.order = append(s.order, root)
	}
	s.pending[root] = append(s.pending[root], e)
	s.pendingEvents++
	for s.pendingEvents > s.maxPending && len(s.order) > 0 {
		r := s.order[0]
		s.order = s.order[1:]
		if evs, ok := s.pending[r]; ok {
			delete(s.pending, r)
			s.pendingEvents -= len(evs)
			s.out += int64(len(evs))
		}
	}
	return nil
}

func (s *refSampler) flag(root SpanID) []Event {
	if root == 0 || s.flagged[root] {
		return nil
	}
	s.markFlagged(root)
	return s.take(root)
}

func (s *refSampler) markFlagged(root SpanID) {
	s.flagged[root] = true
	s.flagOrder = append(s.flagOrder, root)
	if len(s.flagOrder) > s.maxPending {
		delete(s.flagged, s.flagOrder[0])
		s.flagOrder = s.flagOrder[1:]
	}
}

func (s *refSampler) take(root SpanID) []Event {
	evs := s.pending[root]
	delete(s.pending, root)
	s.pendingEvents -= len(evs)
	return append([]Event(nil), evs...)
}

// listSink keeps every emitted event in emission order.
type listSink struct{ events []Event }

func (l *listSink) Emit(e Event) { l.events = append(l.events, e) }

var fuzzNames = []string{"submit", "parse", "read", "fallback", "dma-out"}

// runSamplerScript decodes script into a sample policy and a sequence of
// span records and Flag calls, replays it on a Tracer (streaming to a
// sink) and on the reference sampler, and fails on any difference in the
// kept stream or the counters.
func runSamplerScript(t *testing.T, script []byte) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	var p SamplePolicy
	switch mode := next(); mode % 4 {
	case 0:
		p.Head = next() % 8
	case 1:
		p.Latency = units.Duration(next()%64 + 1)
	case 2:
		p.KeepNames = []string{fuzzNames[next()%len(fuzzNames)]}
	default:
		p = SamplePolicy{Head: next() % 4, Latency: units.Duration(next()%64 + 1)}
	}
	if p.KeepNames == nil && next()%2 == 0 {
		p.KeepNames = []string{} // name matching off
	}
	if !p.Enabled() {
		p.Latency = 32
	}
	p.MaxPending = next()%12 + 1

	sink := &listSink{}
	tr := New(0)
	tr.SetSamplePolicy(p)
	tr.SetSink(sink)
	ref := newRefSampler(p)
	var want []Event
	var recorded int64

	for now := units.Time(0); len(script) >= 4; now++ {
		op, a, b, c := next(), next(), next(), next()
		root := SpanID(a % 16) // 0: no causal tree
		if op%5 == 0 {
			tr.Flag(root)
			want = append(want, ref.flag(root)...)
			continue
		}
		e := Event{
			Track: Intern("t"), Name: Intern(fuzzNames[b%len(fuzzNames)]),
			Detail: Detail{Kind: textKind, Args: [3]int64{int64(Intern("d")), int64(a), int64(c)}},
			Start:  now, End: now + units.Time(c%80),
		}
		if op%2 == 0 { // a root event: its own span is the tree
			e.Span = root
		} else { // a child of root, with a span of its own
			e.Span, e.Parent = SpanID(100+c), root
		}
		recordEvent(tr, e)
		recorded++
		want = append(want, ref.offer(e)...)
	}

	if !reflect.DeepEqual(sink.events, want) {
		t.Fatalf("policy %+v: kept stream differs\n got %d events: %+v\nwant %d events: %+v",
			p, len(sink.events), sink.events, len(want), want)
	}
	if tr.Recorded() != recorded || tr.Kept() != int64(len(want)) ||
		tr.SampledOut() != ref.out || tr.PendingSampled() != ref.pendingEvents {
		t.Fatalf("policy %+v: recorded/kept/out/pending = %d/%d/%d/%d, want %d/%d/%d/%d", p,
			tr.Recorded(), tr.Kept(), tr.SampledOut(), tr.PendingSampled(),
			recorded, len(want), ref.out, ref.pendingEvents)
	}
}

// FuzzTailSampler holds the sampler, with its recycled per-root buffers,
// to the fresh-slice reference over random record/Flag scripts.
func FuzzTailSampler(f *testing.F) {
	f.Add([]byte{1, 10, 0, 3, 1, 2, 3, 4, 3, 2, 70, 9, 0, 2, 1, 1, 5, 2, 0, 0})
	f.Add([]byte{0, 3, 1, 4, 2, 1, 2, 3, 4, 1, 2, 3, 6, 5, 3, 3, 3, 7, 1, 0})
	f.Add([]byte{2, 3, 1, 2, 0, 5, 3, 0, 0, 5, 9, 9, 9, 1, 5, 3, 0, 10, 5, 5, 3, 3, 3, 0})
	f.Fuzz(runSamplerScript)
}

// TestTailSamplerScripts replays deterministic pseudo-random scripts
// through the same differential, so plain `go test` covers buffer
// recycling under every policy shape and eviction pressure.
func TestTailSamplerScripts(t *testing.T) {
	x := uint32(20160618)
	for i := 0; i < 300; i++ {
		script := make([]byte, 16+i*2)
		for j := range script {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			script[j] = byte(x)
		}
		runSamplerScript(t, script)
	}
}
