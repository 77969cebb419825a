// Package stats provides the measurement infrastructure every experiment
// reads: named counters, per-phase time breakdowns, and traffic meters.
// Every table and figure in EXPERIMENTS.md is rendered from these values;
// the hardware models only ever write into them.
package stats

import (
	"fmt"
	"slices"
	"strings"

	"morpheus/internal/intern"
	"morpheus/internal/units"
)

// Counter names used across the simulator. Models may define additional
// ad-hoc counters; these are the ones the experiment harness depends on.
const (
	CtxSwitches   = "os.context_switches"
	Syscalls      = "os.syscalls"
	PageFaults    = "os.page_faults"
	PCIeHostBytes = "pcie.host_bytes" // device <-> host DRAM
	PCIeP2PBytes  = "pcie.p2p_bytes"  // device <-> device
	MemBusBytes   = "membus.bytes"    // CPU-memory bus traffic
	NVMeCommands  = "nvme.commands"
	MorphCommands = "nvme.morpheus_commands"
	StorageAppCyc = "ssd.storageapp_cycles"
	HostParseCyc  = "host.parse_cycles"
	DMATransfers  = "dma.transfers"

	// Hot-extent object cache (internal/ssd/cache.go). Written only when
	// the cache is enabled, so default-off runs keep their exact schema.
	SSDCacheHits          = "ssd.cache.hits"
	SSDCacheMisses        = "ssd.cache.misses"
	SSDCacheEvictions     = "ssd.cache.evictions"
	SSDCacheInvalidations = "ssd.cache.invalidations"

	// Resilience counters (the retry/fallback layer in internal/core).
	CmdRetries       = "core.retries"           // command and train re-submissions
	CmdTimeouts      = "core.timeouts"          // per-command deadlines exceeded
	HostFallbacks    = "core.fallbacks"         // requests served by the host path
	ReplicaFallbacks = "core.replica_fallbacks" // ...that had to re-fetch a replica

	// Submission-path attribution (the batched front-end in
	// internal/core/driver.go). Doorbells counts tail-doorbell MMIO
	// writes, SQEs the commands behind them; their ratio is the achieved
	// coalescing factor. HostCoalesced accumulates batch sizes so the
	// windowed series shows batching ramping up or collapsing over time.
	HostDoorbells = "host.submit.doorbells"
	HostSQEs      = "host.submit.sqes"
	HostCoalesced = "host.submit.coalesced_batch_size"
)

// HostSubmitOverhead is the latency histogram of per-command host-side
// submission cost (CPU cycles to build SQEs + ring the doorbell, divided
// over the commands that shared the doorbell), in picoseconds.
const HostSubmitOverhead = "host.submit.overhead_ps"

// Set is a bag of named int64 counters, stored densely by interned metric
// ID: the read side of a registry's counters, which are written only
// through TimedCounter, and a plain accumulator for folding several
// systems' counters (Merge). The zero value is not usable; call NewSet. A
// Set is NOT safe for concurrent use.
type Set struct {
	vals []counterVal // by metricID
}

// counterVal is one counter slot. set records that the counter has been
// written since the last Reset (a write of zero included): only written
// counters appear in names, snapshots and artifacts.
type counterVal struct {
	v   int64
	set bool
}

// add increments the slot and marks it written.
func (c *counterVal) add(v int64) {
	c.v += v
	c.set = true
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{} }

// slot returns id's slot, growing the set to hold it.
func (s *Set) slot(id metricID) *counterVal {
	s.vals = grow(s.vals, id, 0)
	return &s.vals[id]
}

// Get returns the value of counter name (zero if never written).
func (s *Set) Get(name string) int64 { return getCounter(s.vals, name) }

// Bytes returns the value of counter name as a byte count.
func (s *Set) Bytes(name string) units.Bytes { return units.Bytes(s.Get(name)) }

func getCounter(vals []counterVal, name string) int64 {
	if id, ok := metricIDs.Lookup(name); ok && int(id) < len(vals) {
		return vals[id].v
	}
	return 0
}

// Reset clears all counters.
func (s *Set) Reset() { clear(s.vals) }

// Merge adds every counter from o into s. Aggregating per-tenant sets
// (multiprog, traffic) goes through this rather than sharing one Set.
func (s *Set) Merge(o *Set) {
	if o == nil {
		return
	}
	for id, c := range o.vals {
		if c.set {
			s.slot(metricID(id)).add(c.v)
		}
	}
}

// Snapshot returns a read-only copy of the current counter values,
// decoupled from further writes.
func (s *Set) Snapshot() Snapshot { return Snapshot{vals: slices.Clone(s.vals)} }

// Snapshot is an immutable view of a Set at one instant.
type Snapshot struct {
	vals []counterVal
}

// Get returns the snapshotted value of counter name.
func (s Snapshot) Get(name string) int64 { return getCounter(s.vals, name) }

// Bytes returns the snapshotted value of counter name as a byte count.
func (s Snapshot) Bytes(name string) units.Bytes { return units.Bytes(s.Get(name)) }

// Names returns the snapshotted counter names in sorted order.
func (s Snapshot) Names() []string { return counterNames(s.vals) }

// Names returns all counter names in sorted order.
func (s *Set) Names() []string { return counterNames(s.vals) }

// setIDs appends the IDs of vals' written counters to dst.
func setIDs(dst []metricID, vals []counterVal) []metricID {
	for id, c := range vals {
		if c.set {
			dst = append(dst, metricID(id))
		}
	}
	return dst
}

func counterNames(vals []counterVal) []string {
	ids := setIDs(nil, vals)
	sortByName(ids)
	names, out := metricIDs.Names(), make([]string, len(ids))
	for i, id := range ids {
		out[i] = names[id]
	}
	return out
}

// String renders all counters, one per line, sorted by name.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", n, s.Get(n))
	}
	return b.String()
}

// Phase identifies a section of application execution time: the legend
// of Figure 2 in the paper, plus the write direction's serialization.
type Phase int

// Phases of the Figure 2 breakdown.
const (
	PhaseDeserialize Phase = iota
	PhaseCPUCompute
	PhaseGPUCopy
	PhaseGPUKernel
	PhaseSerialize
	NumPhases // the number of phases, not a phase
)

// phaseNames name the phases in their "phase.<name>_ps" metrics.
var phaseNames = [NumPhases]string{"deserialization", "other_cpu", "gpu_cpu_copy", "gpu_kernel", "serialization"}

// String returns the phase's metric name.
func (p Phase) String() string { return phaseNames[p] }

// metricID is a metric name's process-wide interned index. Every registry
// and counter set stores its metrics in dense slices indexed by it, so a
// resolved handle reaches its metric with one slice index instead of a
// string hash.
type metricID int32

// metricIDs interns the simulator's metric names.
var metricIDs = intern.New[metricID]()

// sortByName sorts ids by metric name in sort.Strings order, the order
// encoding/json gives map keys.
func sortByName(ids []metricID) {
	names := metricIDs.Names()
	slices.SortFunc(ids, func(a, b metricID) int { return strings.Compare(names[a], names[b]) })
}

// grow extends s with zero values so that id indexes it, to at least n
// entries: callers pass the owning registry's current width so a fresh
// series cell is sized once rather than once per new metric.
func grow[T any](s []T, id metricID, n int) []T {
	if int(id) < len(s) {
		return s
	}
	return append(s, make([]T, max(int(id)+1, n)-len(s))...)
}
