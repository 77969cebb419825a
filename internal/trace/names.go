package trace

import "morpheus/internal/intern"

// Name is a track or event name's process-wide interned ID. An Event
// stores its track and name as Names, so recording, buffering and
// discarding a span touch no string. The zero Name is the empty string.
// IDs are handed out in first-use order and never reused; the models
// resolve their fixed vocabulary once, as package variables or when a
// system is built.
type Name int32

var names = intern.New[Name]("")

// Intern returns s's Name, assigning the next ID on first use.
func Intern(s string) Name { return names.ID(s) }

// String returns the interned string.
func (n Name) String() string { return names.Names()[n] }
