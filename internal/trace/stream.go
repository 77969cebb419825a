package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"morpheus/internal/jsonw"
	"morpheus/internal/units"
)

// EventSink receives kept events as they are recorded. Install one on a
// Tracer with SetSink to stream soak-length traces to disk instead of
// buffering the whole run in memory.
type EventSink interface {
	Emit(Event)
}

// SetSink diverts kept events to sink instead of the in-memory buffer
// (nil restores buffering). The Cap does not apply to sunk events.
// Install before recording; events already buffered stay buffered. Safe
// on a nil tracer.
func (t *Tracer) SetSink(sink EventSink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = sink
}

// Kept reports how many events were retained (buffered or streamed to a
// sink; cap drops and sampling discards are not kept).
func (t *Tracer) Kept() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept
}

// defaultChunkCap is how many events a ChromeStream holds in memory
// before spilling a sorted chunk to disk (~64k events ≈ a few MB).
const defaultChunkCap = 1 << 16

// ChromeStream is an EventSink that writes the kept events as Chrome
// trace-event JSON (the format chrome://tracing and https://ui.perfetto.dev
// load) while holding only O(chunk) events in memory: events accumulate
// into fixed-size chunks, each chunk is stable-sorted by start time and
// spilled to a temporary spool file, and Close k-way-merges the chunks
// (start time, then emission order — a stable sort of the whole stream)
// into the destination. Each unit becomes a process (pid) and each track
// a thread (tid) within it, so Perfetto groups e.g. all ssd.core* rows
// under one "ssd" header. Details are formatted here, as each event is
// written, so only kept events ever build their text.
type ChromeStream struct {
	mu       sync.Mutex
	w        io.Writer
	chunkCap int
	buf      []Event
	spools   []*os.File
	tracks   []bool // by Name: whether an event used it as its track
	err      error
	closed   bool
}

// NewChromeStream returns a stream writing the merged trace to w on
// Close. The caller owns w (the stream never closes it).
func NewChromeStream(w io.Writer) *ChromeStream {
	return &ChromeStream{w: w, chunkCap: defaultChunkCap}
}

// Emit accepts one event. Never fails; spill errors surface from Close.
func (c *ChromeStream) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return
	}
	if n := int(e.Track) + 1; n > len(c.tracks) {
		c.tracks = append(c.tracks, make([]bool, n-len(c.tracks))...)
	}
	c.tracks[e.Track] = true
	c.buf = append(c.buf, e)
	if len(c.buf) >= c.chunkCap {
		c.err = c.spillLocked()
	}
}

// spillLocked sorts the in-memory chunk and writes it to a fresh spool,
// one fixed-size record per event.
func (c *ChromeStream) spillLocked() error {
	sortChunk(c.buf)
	f, err := os.CreateTemp("", "morpheus-trace-*.spool")
	if err != nil {
		return fmt.Errorf("trace stream: spill: %w", err)
	}
	bw := bufio.NewWriter(f)
	var rec [recordSize]byte
	for _, e := range c.buf {
		bw.Write(putRecord(&rec, e)) // an error sticks in bw; Flush returns it
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("trace stream: spill: %w", err)
	}
	c.spools = append(c.spools, f)
	c.buf = c.buf[:0]
	return nil
}

// recordSize is a spooled event's size: Event's fields, little-endian,
// in declaration order.
const recordSize = 4 + 4 + 4 + 3*8 + 8 + 8 + 8 + 8

// putRecord encodes e into rec and returns it as a slice.
func putRecord(rec *[recordSize]byte, e Event) []byte {
	b := binary.LittleEndian.AppendUint32(rec[:0], uint32(e.Track))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Name))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Detail.Kind))
	for _, a := range e.Detail.Args {
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Span))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Parent))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Start))
	return binary.LittleEndian.AppendUint64(b, uint64(e.End))
}

// getRecord decodes putRecord's encoding.
func getRecord(rec *[recordSize]byte) Event {
	b := rec[:]
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(b); b = b[4:]; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(b); b = b[8:]; return v }
	e := Event{Track: Name(u32()), Name: Name(u32())}
	e.Detail.Kind = DetailKind(u32())
	for i := range e.Detail.Args {
		e.Detail.Args[i] = int64(u64())
	}
	e.Span, e.Parent = SpanID(u64()), SpanID(u64())
	e.Start, e.End = units.Time(u64()), units.Time(u64())
	return e
}

// trackUnit maps a track name to its owning unit: the prefix before the
// first dot ("ssd.core1" → "ssd"), or the whole name for single-track
// units ("nvme", "host").
func trackUnit(track string) string {
	if i := strings.IndexByte(track, '.'); i >= 0 {
		return track[:i]
	}
	return track
}

// chromeLayout numbers units (pids) and tracks (tids) from the sorted
// track list: pids in first-seen order over sorted tracks, tids in
// sorted-track order, and the unit list re-sorted for metadata emission.
func chromeLayout(tracks []string) (pidOf, tidOf map[string]int, unitNames []string) {
	pidOf = map[string]int{}
	tidOf = map[string]int{}
	for _, track := range tracks {
		u := trackUnit(track)
		if _, ok := pidOf[u]; !ok {
			pidOf[u] = len(unitNames) + 1
			unitNames = append(unitNames, u)
		}
		tidOf[track] = len(tidOf) + 1
	}
	sort.Strings(unitNames)
	return pidOf, tidOf, unitNames
}

const psPerMicro = 1e6 // units.Time is picoseconds; trace ts is µs

// sortChunk stable-sorts events by start time, preserving emission order
// within equal starts — the same ordering Tracer.Events() produces.
func sortChunk(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Start, b.Start) })
}

// chunkCursor reads one sorted chunk back, either from a spool file or
// the final in-memory chunk.
type chunkCursor struct {
	r    *bufio.Reader // nil for the in-memory chunk
	mem  []Event
	pos  int
	head Event
	ok   bool
}

func (cc *chunkCursor) advance() error {
	if cc.r == nil {
		if cc.pos >= len(cc.mem) {
			cc.ok = false
			return nil
		}
		cc.head = cc.mem[cc.pos]
		cc.pos++
		cc.ok = true
		return nil
	}
	var rec [recordSize]byte
	switch _, err := io.ReadFull(cc.r, rec[:]); err {
	case nil:
		cc.head = getRecord(&rec)
		cc.ok = true
		return nil
	case io.EOF:
		cc.ok = false
		return nil
	default:
		cc.ok = false
		return fmt.Errorf("trace stream: merge: %w", err)
	}
}

// Close merges the chunks and writes the complete trace JSON to the
// destination, then removes the spool files. Idempotent; returns the
// first error hit anywhere in the stream's life.
func (c *ChromeStream) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.closed = true
	defer func() {
		for _, f := range c.spools {
			f.Close()
			os.Remove(f.Name())
		}
		c.spools = nil
		c.buf = nil
	}()
	if c.err != nil {
		return c.err
	}
	c.err = c.mergeLocked()
	return c.err
}

func (c *ChromeStream) mergeLocked() error {
	sortChunk(c.buf)
	cursors := make([]*chunkCursor, 0, len(c.spools)+1)
	for _, f := range c.spools {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("trace stream: merge: %w", err)
		}
		cursors = append(cursors, &chunkCursor{r: bufio.NewReader(f)})
	}
	cursors = append(cursors, &chunkCursor{mem: c.buf}) // newest chunk last
	for _, cc := range cursors {
		if err := cc.advance(); err != nil {
			return err
		}
	}

	var tracks []string
	for tr, used := range c.tracks {
		if used {
			tracks = append(tracks, Name(tr).String())
		}
	}
	sort.Strings(tracks)
	pidOf, tidOf, unitNames := chromeLayout(tracks)
	x := &chromeExport{
		ids:    make([][2]int, len(c.tracks)),
		quoted: make([]string, len(names.Names())),
	}
	for _, track := range tracks {
		x.ids[Intern(track)] = [2]int{pidOf[trackUnit(track)], tidOf[track]}
	}

	jw := jsonw.New(c.w)
	jw.BeginObject()
	jw.Key("traceEvents")
	jw.BeginArray()
	for _, u := range unitNames {
		writeChromeMeta(jw, "process_name", pidOf[u], 0, u)
	}
	for _, track := range tracks {
		writeChromeMeta(jw, "thread_name", pidOf[trackUnit(track)], tidOf[track], track)
	}
	for {
		// Pick the earliest head; ties go to the lowest (oldest) chunk,
		// reproducing the global stable sort (chunks are filled in
		// emission order, so equal starts across chunks keep that order).
		best := -1
		for i, cc := range cursors {
			if cc.ok && (best < 0 || cc.head.Start < cursors[best].head.Start) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		x.writeEvent(jw, cursors[best].head)
		if err := cursors[best].advance(); err != nil {
			return err
		}
	}
	jw.EndArray()
	jw.Key("displayTimeUnit")
	jw.String("ns")
	jw.EndObject()
	if err := jw.Close(); err != nil {
		return fmt.Errorf("trace stream: %w", err)
	}
	return nil
}

// The keys of a trace event and of its args.
var (
	nameField   = jsonw.NewField("name")
	phField     = jsonw.NewField("ph")
	tsField     = jsonw.NewField("ts")
	durField    = jsonw.NewField("dur")
	pidField    = jsonw.NewField("pid")
	tidField    = jsonw.NewField("tid")
	scopeField  = jsonw.NewField("s")
	argsField   = jsonw.NewField("args")
	detailField = jsonw.NewField("detail")
	parentField = jsonw.NewField("parent")
	spanField   = jsonw.NewField("span")
)

// writeChromeMeta writes one process_name or thread_name metadata event.
func writeChromeMeta(jw *jsonw.Writer, name string, pid, tid int, arg string) {
	jw.BeginObject()
	jw.Field(nameField)
	jw.String(name)
	jw.Field(phField)
	jw.String("M")
	jw.Field(tsField)
	jw.Int(0)
	jw.Field(pidField)
	jw.Int(int64(pid))
	jw.Field(tidField)
	jw.Int(int64(tid))
	jw.Field(argsField)
	jw.BeginObject()
	jw.Key("name")
	jw.String(arg)
	jw.EndObject()
	jw.EndObject()
}

// chromeExport is one Close's state for writing events.
type chromeExport struct {
	ids    [][2]int // by track Name: pid, tid
	quoted []string // by Name: its JSON encoding, once an event used it
	detail []byte   // scratch for formatting a detail
}

// writeEvent writes one recorded event: spans are complete ("X") events
// with a duration, instants thread-scoped ("i"), and args holds the
// non-empty detail, non-zero parent and span in key order, so the causal
// chain survives the export. It is the only place a detail is formatted.
func (x *chromeExport) writeEvent(jw *jsonw.Writer, e Event) {
	q := x.quoted[e.Name]
	if q == "" {
		q = jsonw.Quote(e.Name.String())
		x.quoted[e.Name] = q
	}
	jw.BeginObject()
	jw.Field(nameField)
	jw.QuotedString(q)
	point := e.Point()
	jw.Field(phField)
	if point {
		jw.QuotedString(`"i"`)
	} else {
		jw.QuotedString(`"X"`)
	}
	jw.Field(tsField)
	jw.Float(float64(e.Start) / psPerMicro)
	if !point {
		jw.Field(durField)
		jw.Float(float64(e.End-e.Start) / psPerMicro)
	}
	id := x.ids[e.Track]
	jw.Field(pidField)
	jw.Int(int64(id[0]))
	jw.Field(tidField)
	jw.Int(int64(id[1]))
	if point {
		jw.Field(scopeField)
		jw.QuotedString(`"t"`)
	}
	x.detail = e.Detail.Append(x.detail[:0])
	if e.Span != 0 || e.Parent != 0 || len(x.detail) > 0 {
		jw.Field(argsField)
		jw.BeginObject()
		if len(x.detail) > 0 {
			jw.Field(detailField)
			jw.StringBytes(x.detail)
		}
		if e.Parent != 0 {
			jw.Field(parentField)
			jw.Uint(uint64(e.Parent))
		}
		if e.Span != 0 {
			jw.Field(spanField)
			jw.Uint(uint64(e.Span))
		}
		jw.EndObject()
	}
	jw.EndObject()
}
