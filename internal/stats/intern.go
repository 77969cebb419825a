package stats

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// metricID is a metric name's process-wide interned index. Every registry
// and counter set stores its metrics in dense slices indexed by it, so a
// resolved handle reaches its metric with one slice index instead of a
// string hash. IDs are handed out in first-use order and never reused;
// the name space is the simulator's fixed vocabulary (a few hundred
// names), so the table stays small.
type metricID int32

// internTable is one immutable generation of the name table: a new name
// copies the map and appends to the slice, so readers never lock.
type internTable struct {
	ids   map[string]metricID
	names []string // by ID
}

var (
	interned atomic.Pointer[internTable]
	internMu sync.Mutex // serializes new names
)

func init() { interned.Store(&internTable{ids: map[string]metricID{}}) }

// intern returns name's ID, assigning the next one on first use.
func intern(name string) metricID {
	if id, ok := interned.Load().ids[name]; ok {
		return id
	}
	internMu.Lock()
	defer internMu.Unlock()
	t := interned.Load()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := metricID(len(t.names))
	ids := make(map[string]metricID, len(t.ids)+1)
	for n, i := range t.ids {
		ids[n] = i
	}
	ids[name] = id
	// Appending past len never touches an element an older generation's
	// readers can see.
	interned.Store(&internTable{ids: ids, names: append(t.names, name)})
	return id
}

// lookupID returns name's ID without interning it.
func lookupID(name string) (metricID, bool) {
	id, ok := interned.Load().ids[name]
	return id, ok
}

// metricNames returns the current ID → name table.
func metricNames() []string { return interned.Load().names }

// sortByName sorts ids by metric name in sort.Strings order, the order
// encoding/json gives map keys.
func sortByName(ids []metricID) {
	names := metricNames()
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
