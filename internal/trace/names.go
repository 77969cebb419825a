package trace

import (
	"sync"
	"sync/atomic"
)

// Name is a track or event name's process-wide interned ID. An Event
// stores its track and name as Names, so recording, buffering and
// discarding a span touch no string. The zero Name is the empty string.
// IDs are handed out in first-use order and never reused; the models
// resolve their fixed vocabulary once, as package variables or when a
// system is built.
type Name int32

// nameTable is one immutable generation of the name table: a new name
// copies the map and appends to the slice, so readers never lock.
type nameTable struct {
	ids   map[string]Name
	names []string // by ID
}

var (
	names   atomic.Pointer[nameTable]
	namesMu sync.Mutex // serializes new names
)

func init() { names.Store(&nameTable{ids: map[string]Name{"": 0}, names: []string{""}}) }

// Intern returns s's Name, assigning the next ID on first use.
func Intern(s string) Name {
	if id, ok := names.Load().ids[s]; ok {
		return id
	}
	namesMu.Lock()
	defer namesMu.Unlock()
	t := names.Load()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := Name(len(t.names))
	ids := make(map[string]Name, len(t.ids)+1)
	for n, i := range t.ids {
		ids[n] = i
	}
	ids[s] = id
	// Appending past len never touches an element an older generation's
	// readers can see.
	names.Store(&nameTable{ids: ids, names: append(t.names, s)})
	return id
}

// String returns the interned string.
func (n Name) String() string { return names.Load().names[n] }
