// Package sim provides the transaction-level simulation substrate used by
// every hardware model in the repository: interval-ledger resources with
// earliest-gap placement, bandwidth pipes, and the worker budget the
// array executor draws its shard slots from.
//
// The central abstraction is the Resource: a serially-reusable unit (a CPU
// core, a flash channel, a DMA engine, a PCIe link) whose occupancy is an
// interval ledger. A caller that becomes ready at time t and needs the
// resource for duration d calls Acquire(t, d) and learns when its use
// actually started and ended; contention shows up as start > t. Because
// placement is earliest-gap rather than call-order FIFO, simulation code
// may describe concurrent activities (threads, pipelined commands) in any
// call order and still get correct overlap. The model is deterministic,
// race-free, and fast, at the cost of modelling only non-preemptive
// occupancy — which is what the Morpheus evaluation needs.
package sim

import (
	"fmt"
	"sort"

	"morpheus/internal/units"
)

// Resource is a serially-reusable unit whose occupancy is an interval
// ledger. Acquire places each use in the earliest gap at or after the
// caller's ready time, so simulation code may describe concurrent
// activities in any call order — a transfer that is ready earlier than
// already-recorded future work backfills in front of it instead of
// falsely queueing behind. The zero value is a ready, idle resource.
type Resource struct {
	name string
	// busy intervals, sorted by start, non-overlapping, coalesced.
	intervals []interval
	busyTime  units.Duration // total occupied time, for utilization reports
	acquires  int64
	waited    units.Duration // total queueing delay experienced by users
	// watermark is the completed-work floor set by Retire: no future
	// Acquire/EarliestStart may use a ready time before it, so intervals
	// ending at or before it can be pruned from the ledger.
	watermark units.Time
	// lastEnd caches the end of the last recorded occupancy, so BusyUntil
	// survives pruning.
	lastEnd units.Time
}

type interval struct{ start, end units.Time }

// NewResource returns a named idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Acquire reserves the resource for duration d by a user that is ready at
// time ready, in the earliest gap that fits. It returns the actual start
// and end of the occupancy.
func (r *Resource) Acquire(ready units.Time, d units.Duration) (start, end units.Time) {
	if d < 0 {
		panic("sim: negative duration")
	}
	r.acquires++
	if d == 0 {
		// Zero-duration acquires never queue, but they are still bound by
		// the Retire contract like every other acquire.
		if ready < r.watermark {
			panic(fmt.Sprintf("sim: %s: ready time %v precedes the Retire watermark %v", r.name, ready, r.watermark))
		}
		return ready, ready
	}
	start = r.EarliestStart(ready, d)
	end = start.Add(d)
	r.insert(interval{start, end})
	r.waited += start.Sub(ready)
	r.busyTime += d
	return start, end
}

// EarliestStart reports when a use of duration d ready at the given time
// could start, without reserving it.
func (r *Resource) EarliestStart(ready units.Time, d units.Duration) units.Time {
	if ready < r.watermark {
		panic(fmt.Sprintf("sim: %s: ready time %v precedes the Retire watermark %v", r.name, ready, r.watermark))
	}
	// Tail fast path: most acquires land at or after everything recorded
	// (monotone ready times on an uncontended resource), where no gap
	// search is needed.
	if ready >= r.lastEnd {
		return ready
	}
	// Find the first interval that ends after ready.
	i := sort.Search(len(r.intervals), func(i int) bool { return r.intervals[i].end > ready })
	start := ready
	for ; i < len(r.intervals); i++ {
		iv := r.intervals[i]
		if iv.start >= start.Add(d) {
			break // the gap before iv fits
		}
		if iv.end > start {
			start = iv.end
		}
	}
	return start
}

// insert adds iv to the ledger, coalescing with neighbours that touch it.
func (r *Resource) insert(iv interval) {
	if iv.end > r.lastEnd {
		r.lastEnd = iv.end
	}
	// Tail fast path: an interval starting at or after the last recorded
	// end appends (or extends the tail) without the binary search + shift.
	if n := len(r.intervals); n == 0 || iv.start > r.intervals[n-1].end {
		r.intervals = append(r.intervals, iv)
		return
	} else if iv.start == r.intervals[n-1].end {
		r.intervals[n-1].end = iv.end
		return
	}
	i := sort.Search(len(r.intervals), func(i int) bool { return r.intervals[i].start >= iv.start })
	// Coalesce with predecessor.
	if i > 0 && r.intervals[i-1].end == iv.start {
		r.intervals[i-1].end = iv.end
		// Coalesce with successor.
		if i < len(r.intervals) && r.intervals[i].start == iv.end {
			r.intervals[i-1].end = r.intervals[i].end
			r.intervals = append(r.intervals[:i], r.intervals[i+1:]...)
		}
		return
	}
	if i < len(r.intervals) && r.intervals[i].start == iv.end {
		r.intervals[i].start = iv.start
		return
	}
	r.intervals = append(r.intervals, interval{})
	copy(r.intervals[i+1:], r.intervals[i:])
	r.intervals[i] = iv
}

// BusyUntil reports the end of the last recorded occupancy.
func (r *Resource) BusyUntil() units.Time { return r.lastEnd }

// Retire declares that all work ready before t has already been issued:
// the caller promises that no future Acquire or EarliestStart will use a
// ready time earlier than t (violations panic). Intervals ending at or
// before t can no longer influence any future placement, so they are
// pruned from the ledger. Without retirement a sparse acquire pattern — a
// co-runner's periodic slices, a long pipelined train — accumulates an
// unbounded ledger and every later backfilling insert pays O(n); callers
// with a completed-work floor (a phase boundary, a batch flush) retire it
// to keep the ledger short. Statistics (BusyTime, Waited, Acquires,
// BusyUntil) are unaffected, and placement of any legal future request is
// byte-identical to the unpruned ledger.
func (r *Resource) Retire(t units.Time) {
	if t <= r.watermark {
		return
	}
	r.watermark = t
	// Every interval that ends at or before the watermark is dead: a
	// future request has ready >= t, so EarliestStart can never scan or
	// place into it. Compact lazily — dropping the prefix is O(live), so
	// only pay it once the dead prefix dominates (amortized O(1) per
	// retired interval); dead intervals are harmless in the meantime
	// because every search starts at or past the watermark.
	i := sort.Search(len(r.intervals), func(i int) bool { return r.intervals[i].end > t })
	if i > 0 && (i == len(r.intervals) || i >= len(r.intervals)/2) {
		r.intervals = append(r.intervals[:0], r.intervals[i:]...)
	}
}

// Watermark reports the current completed-work floor (zero if never
// retired).
func (r *Resource) Watermark() units.Time { return r.watermark }

// LedgerLen reports the number of live intervals in the ledger, for
// growth regression tests.
func (r *Resource) LedgerLen() int { return len(r.intervals) }

// BusyTime reports the total occupied time since creation or Reset.
func (r *Resource) BusyTime() units.Duration { return r.busyTime }

// Waited reports the cumulative queueing delay experienced by users.
func (r *Resource) Waited() units.Duration { return r.waited }

// Acquires reports how many times the resource was acquired.
func (r *Resource) Acquires() int64 { return r.acquires }

// Reset returns the resource to idle at time zero, clearing statistics
// and the Retire watermark.
func (r *Resource) Reset() {
	r.intervals = r.intervals[:0]
	r.busyTime = 0
	r.acquires = 0
	r.waited = 0
	r.watermark = 0
	r.lastEnd = 0
}

// Pool is a set of n interchangeable resources (e.g. the CPU cores of a
// socket, the embedded cores of an SSD controller). Acquire picks the
// member that lets the request start earliest, which models an ideal
// work-conserving dispatcher.
type Pool struct {
	name    string
	members []*Resource
}

// NewPool returns a pool of n resources named name[0..n-1].
func NewPool(name string, n int) *Pool {
	if n <= 0 {
		panic("sim: pool needs at least one member")
	}
	p := &Pool{name: name}
	for i := 0; i < n; i++ {
		p.members = append(p.members, NewResource(fmt.Sprintf("%s[%d]", name, i)))
	}
	return p
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the number of members.
func (p *Pool) Size() int { return len(p.members) }

// Member returns the i'th member, for affinity-pinned use (the Morpheus
// firmware pins each StorageApp instance ID to one embedded core).
func (p *Pool) Member(i int) *Resource { return p.members[i%len(p.members)] }

// Acquire reserves any member for duration d, choosing the one that can
// start the request earliest (ties broken by lowest index, keeping the
// simulation deterministic).
func (p *Pool) Acquire(ready units.Time, d units.Duration) (start, end units.Time) {
	best := p.members[0]
	bestStart := best.EarliestStart(ready, d)
	for _, m := range p.members[1:] {
		if s := m.EarliestStart(ready, d); s < bestStart {
			best, bestStart = m, s
		}
	}
	return best.Acquire(ready, d)
}

// BusyTime reports the summed occupied time across members.
func (p *Pool) BusyTime() units.Duration {
	var t units.Duration
	for _, m := range p.members {
		t += m.BusyTime()
	}
	return t
}

// Reset resets all members.
func (p *Pool) Reset() {
	for _, m := range p.members {
		m.Reset()
	}
}

// Retire sets the completed-work watermark on every member (see
// Resource.Retire).
func (p *Pool) Retire(t units.Time) {
	for _, m := range p.members {
		m.Retire(t)
	}
}

// Pipe is a bandwidth-limited, serially-occupied transfer medium: a PCIe
// link direction, the CPU-memory bus, a flash channel. A transfer of n
// bytes ready at t occupies the pipe for latency + n/bandwidth.
type Pipe struct {
	res       Resource
	bw        units.Bandwidth
	latency   units.Duration
	moved     units.Bytes
	transfers int64
}

// NewPipe returns a pipe with the given per-transfer latency and bandwidth.
func NewPipe(name string, latency units.Duration, bw units.Bandwidth) *Pipe {
	return &Pipe{res: Resource{name: name}, bw: bw, latency: latency}
}

// Name returns the pipe's name.
func (p *Pipe) Name() string { return p.res.name }

// Bandwidth returns the pipe's configured bandwidth.
func (p *Pipe) Bandwidth() units.Bandwidth { return p.bw }

// Transfer moves n bytes through the pipe starting no earlier than ready,
// returning when the transfer starts and completes.
func (p *Pipe) Transfer(ready units.Time, n units.Bytes) (start, end units.Time) {
	d := p.latency + p.bw.TimeFor(n)
	start, end = p.res.Acquire(ready, d)
	p.moved += n
	p.transfers++
	return start, end
}

// Moved reports the total bytes moved through the pipe.
func (p *Pipe) Moved() units.Bytes { return p.moved }

// Transfers reports the number of transfers.
func (p *Pipe) Transfers() int64 { return p.transfers }

// BusyTime reports total occupied time.
func (p *Pipe) BusyTime() units.Duration { return p.res.BusyTime() }

// Reset clears occupancy and statistics.
func (p *Pipe) Reset() {
	p.res.Reset()
	p.moved = 0
	p.transfers = 0
}

// Retire sets the completed-work watermark on the underlying resource
// (see Resource.Retire).
func (p *Pipe) Retire(t units.Time) { p.res.Retire(t) }
