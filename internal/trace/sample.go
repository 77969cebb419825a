package trace

import "morpheus/internal/units"

// SamplePolicy configures tail sampling: a bounded-memory trace mode that
// keeps a deterministic head sample plus every command tree that turns
// out to be interesting — it crossed a latency threshold, carried a
// marker name (retry/fault/degraded paths), or was flagged explicitly by
// the models. Everything else is discarded, so soak-length runs hold
// O(head + interesting + MaxPending) events and at most MaxPending
// flagged roots instead of O(all).
//
// Sampling keys on causal trees: an event's root is its Parent span when
// set (device-side events point at the submitting command) or its own
// Span. Once any event of a tree is interesting the whole tree is kept,
// including earlier events, which wait in a bounded pending buffer until
// their tree is decided. Events with no span at all are decided alone.
type SamplePolicy struct {
	// Head is the number of initial events kept unconditionally (per
	// tracer — the experiment harness gives each sweep point its own
	// tracer, so the head sample is per point).
	Head int
	// Latency marks a tree interesting when any of its events spans at
	// least this long (0 disables the threshold).
	Latency units.Duration
	// KeepNames marks a tree interesting when an event's Name matches.
	// nil means DefaultKeepNames; an explicit empty non-nil slice disables
	// name matching.
	KeepNames []string
	// MaxPending bounds the undecided-event buffer (default 4096): when
	// full, the oldest undecided tree is discarded wholesale. A tree
	// flagged after eviction keeps only its later events. It bounds the
	// set of flagged roots too: the sampler remembers the most recent
	// MaxPending trees decided interesting, and an event of an older one
	// is decided afresh, as if its tree were new.
	MaxPending int
}

// DefaultKeepNames are the event names that mark a tree interesting when
// SamplePolicy.KeepNames is nil: the degraded-mode marker the host
// runtime records when a command falls back.
var DefaultKeepNames = []string{"fallback"}

// Enabled reports whether the policy samples at all; a zero policy keeps
// every event (sampling off).
func (p SamplePolicy) Enabled() bool {
	return p.Head > 0 || p.Latency > 0 || len(p.KeepNames) > 0
}

const defaultMaxPending = 4096

// maxFreeBuffers bounds the sampler's free list of per-root buffers.
const maxFreeBuffers = 64

// sampler implements the policy. Guarded by the owning Tracer's mutex.
type sampler struct {
	policy    SamplePolicy
	keepNames map[Name]bool
	headLeft  int
	// flagged holds the most recent maxPending roots decided
	// interesting, flagOrder the same roots as a ring whose oldest entry
	// is at flagNext once full. pending buffers undecided trees, order
	// their roots oldest-first (entries may be stale after a flag — the
	// pending map is the truth).
	flagged       map[SpanID]bool
	flagOrder     []SpanID
	flagNext      int
	pending       map[SpanID][]Event
	order         []SpanID
	pendingEvents int
	maxPending    int
	out           int64 // events discarded by sampling decisions
	// free holds emptied per-root buffers for reuse: a buffer comes back
	// once its tree is kept (take, then recycle) or evicted.
	free [][]Event
}

func newSampler(p SamplePolicy) *sampler {
	names := p.KeepNames
	if names == nil {
		names = DefaultKeepNames
	}
	s := &sampler{
		policy:     p,
		keepNames:  map[Name]bool{},
		headLeft:   p.Head,
		flagged:    map[SpanID]bool{},
		pending:    map[SpanID][]Event{},
		maxPending: p.MaxPending,
	}
	for _, n := range names {
		s.keepNames[Intern(n)] = true
	}
	if s.maxPending <= 0 {
		s.maxPending = defaultMaxPending
	}
	return s
}

func rootOf(e Event) SpanID {
	if e.Parent != 0 {
		return e.Parent
	}
	return e.Span
}

func (s *sampler) interesting(e Event) bool {
	if s.policy.Latency > 0 && e.Duration() >= s.policy.Latency {
		return true
	}
	return s.keepNames[e.Name]
}

// offer decides event e. tree is a flushed pending tree to keep before
// e (recycle it afterwards); self reports whether e itself is kept. With
// neither, e was buffered or discarded.
func (s *sampler) offer(e Event) (tree []Event, self bool) {
	if s.headLeft > 0 {
		s.headLeft--
		return nil, true
	}
	root := rootOf(e)
	interesting := s.interesting(e)
	if root == 0 { // no causal tree: decide alone
		if !interesting {
			s.out++
		}
		return nil, interesting
	}
	if s.flagged[root] {
		return nil, true
	}
	if interesting {
		s.markFlagged(root)
		return s.take(root), true
	}
	s.buffer(root, e)
	return nil, false
}

// flag marks a tree interesting (models call this on retry, timeout, and
// fault paths) and returns its buffered events for keeping.
func (s *sampler) flag(root SpanID) []Event {
	if s.flagged[root] {
		return nil
	}
	s.markFlagged(root)
	return s.take(root)
}

// markFlagged adds a root that is not flagged yet to the flagged set,
// forgetting the oldest flagged root once the set holds maxPending.
func (s *sampler) markFlagged(root SpanID) {
	if len(s.flagOrder) < s.maxPending {
		s.flagOrder = append(s.flagOrder, root)
	} else {
		delete(s.flagged, s.flagOrder[s.flagNext])
		s.flagOrder[s.flagNext] = root
		s.flagNext = (s.flagNext + 1) % s.maxPending
	}
	s.flagged[root] = true
}

// take removes and returns a root's buffered events; the caller hands
// the slice back through recycle once it has kept them.
func (s *sampler) take(root SpanID) []Event {
	evs, ok := s.pending[root]
	if !ok {
		return nil
	}
	delete(s.pending, root)
	s.pendingEvents -= len(evs)
	return evs
}

// recycle returns an emptied buffer to the bounded free list.
func (s *sampler) recycle(evs []Event) {
	if cap(evs) > 0 && len(s.free) < maxFreeBuffers {
		s.free = append(s.free, evs[:0])
	}
}

// buffer parks an undecided event, evicting the oldest undecided trees
// once the buffer exceeds MaxPending events.
func (s *sampler) buffer(root SpanID, e Event) {
	evs, ok := s.pending[root]
	if !ok {
		s.order = append(s.order, root)
		if n := len(s.free); n > 0 {
			evs = s.free[n-1]
			s.free = s.free[:n-1]
		}
	}
	s.pending[root] = append(evs, e)
	s.pendingEvents++
	for s.pendingEvents > s.maxPending && len(s.order) > 0 {
		r := s.order[0]
		s.order = s.order[1:]
		if evs, ok := s.pending[r]; ok {
			delete(s.pending, r)
			s.pendingEvents -= len(evs)
			s.out += int64(len(evs))
			s.recycle(evs)
		}
	}
	// Compact stale order entries left behind by flags so the slice stays
	// proportional to the pending trees.
	if len(s.order) > 2*len(s.pending)+16 {
		live := s.order[:0]
		for _, r := range s.order {
			if _, ok := s.pending[r]; ok {
				live = append(live, r)
			}
		}
		s.order = live
	}
}

// SetSamplePolicy installs (or, with a zero policy, removes) tail
// sampling. Call before recording; installing a policy mid-run discards
// nothing already kept. Safe on a nil tracer.
func (t *Tracer) SetSamplePolicy(p SamplePolicy) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !p.Enabled() {
		t.sampler = nil
		return
	}
	t.sampler = newSampler(p)
}

// SamplePolicy returns the installed policy (zero when sampling is off).
func (t *Tracer) SamplePolicy() SamplePolicy {
	if t == nil {
		return SamplePolicy{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sampler == nil {
		return SamplePolicy{}
	}
	return t.sampler.policy
}

// Flag marks span's causal tree interesting so the sampler keeps it:
// buffered events flush immediately and future events of the tree are
// kept as they arrive. Models call it on retry, timeout, fault, and
// degraded-mode paths with the root (submission) span. A no-op without a
// sampler, on the zero span, and on a nil tracer.
func (t *Tracer) Flag(span SpanID) {
	if t == nil || span == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sampler == nil {
		return
	}
	t.keepTree(t.sampler.flag(span))
}

// Child returns a fresh unbounded tracer inheriting t's sample policy
// (but not its events, cap, or sink). The experiment harness records each
// sweep point on a child and adopts it back, so sampling decisions happen
// point-locally and identically whether points run sequentially or in
// parallel. Safe on a nil tracer (returns nil).
func (t *Tracer) Child() *Tracer {
	if t == nil {
		return nil
	}
	c := New(0)
	t.mu.Lock()
	sampler := t.sampler
	t.mu.Unlock()
	if sampler != nil {
		c.SetSamplePolicy(sampler.policy)
	}
	return c
}

// Recorded reports how many events the models offered (kept or not).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded
}

// SampledOut reports events discarded by sampling decisions (not cap
// drops; undecided trees abandoned at adoption count here too).
func (t *Tracer) SampledOut() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.sampledOut
	if t.sampler != nil {
		out += t.sampler.out
	}
	return out
}

// PendingSampled reports events currently buffered awaiting a sampling
// decision (bounded by the policy's MaxPending).
func (t *Tracer) PendingSampled() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sampler == nil {
		return 0
	}
	return t.sampler.pendingEvents
}
