package trace

import (
	"sync"
	"sync/atomic"
)

// DetailKind selects the formatter that renders a Detail; the zero kind
// is "no detail".
type DetailKind uint32

// Detail is an event's annotation as a fixed-size record: a kind and up
// to three integer arguments (strings ride as interned Names, floats as
// their IEEE bits). It is formatted only when a kept event is exported,
// so a span the sampler discards never builds its text.
type Detail struct {
	Kind DetailKind
	Args [3]int64
}

// DetailFormat renders a detail's arguments as the exported text.
type DetailFormat func(args [3]int64) string

var (
	detailFormats atomic.Pointer[[]DetailFormat] // by kind; index 0 unused
	detailMu      sync.Mutex                     // serializes registration
)

// RegisterDetail adds a detail format and returns its kind. The package
// that records a detail registers its format once, as a package variable.
func RegisterDetail(f DetailFormat) DetailKind {
	detailMu.Lock()
	defer detailMu.Unlock()
	fs := []DetailFormat{nil}
	if p := detailFormats.Load(); p != nil {
		fs = *p
	}
	// Copy: readers may hold the previous generation.
	fs = append(fs[:len(fs):len(fs)], f)
	detailFormats.Store(&fs)
	return DetailKind(len(fs) - 1)
}

// String formats the detail ("" for the zero kind).
func (d Detail) String() string {
	if d.Kind == 0 {
		return ""
	}
	return (*detailFormats.Load())[d.Kind](d.Args)
}

var textKind = RegisterDetail(func(a [3]int64) string { return Name(a[0]).String() })

// Text returns a detail that renders as s. It interns s, so it suits a
// fixed string resolved once, not one built per event.
func Text(s string) Detail {
	if s == "" {
		return Detail{}
	}
	return Detail{Kind: textKind, Args: [3]int64{int64(Intern(s))}}
}
