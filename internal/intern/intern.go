// Package intern maps strings to small dense integer IDs, process-wide.
// IDs are handed out in first-use order and never reused, so a table
// indexed by ID is a slice, and a value that stores an ID instead of a
// string holds no pointer. The tables are meant for a fixed vocabulary
// (metric, track and event names: a few hundred strings), because every
// new string copies the table.
package intern

import (
	"sync"
	"sync/atomic"
)

// Table interns strings as IDs of type ID. Lookups never lock: each new
// string publishes a fresh immutable generation (a copied map and an
// appended slice), so readers of an older one are never disturbed.
type Table[ID ~int32] struct {
	gen atomic.Pointer[generation[ID]]
	mu  sync.Mutex // serializes new strings
}

// generation is one immutable state of a Table.
type generation[ID ~int32] struct {
	ids   map[string]ID
	names []string // by ID
}

// New returns a table whose first IDs, from 0, are the seed strings.
func New[ID ~int32](seed ...string) *Table[ID] {
	g := &generation[ID]{ids: make(map[string]ID, len(seed))}
	for _, s := range seed {
		if _, ok := g.ids[s]; !ok {
			g.ids[s] = ID(len(g.names))
			g.names = append(g.names, s)
		}
	}
	t := &Table[ID]{}
	t.gen.Store(g)
	return t
}

// ID returns s's ID, assigning the next one on first use.
func (t *Table[ID]) ID(s string) ID {
	if id, ok := t.gen.Load().ids[s]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.gen.Load()
	if id, ok := g.ids[s]; ok {
		return id
	}
	id := ID(len(g.names))
	ids := make(map[string]ID, len(g.ids)+1)
	for n, i := range g.ids {
		ids[n] = i
	}
	ids[s] = id
	// Appending past len never touches an element an older generation's
	// readers can see.
	t.gen.Store(&generation[ID]{ids: ids, names: append(g.names, s)})
	return id
}

// Lookup returns s's ID without assigning one.
func (t *Table[ID]) Lookup(s string) (ID, bool) {
	id, ok := t.gen.Load().ids[s]
	return id, ok
}

// Names returns the current ID → string table. The caller must not
// modify it; a later ID call never changes the strings it holds.
func (t *Table[ID]) Names() []string { return t.gen.Load().names }
