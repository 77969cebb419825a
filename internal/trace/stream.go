package trace

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"morpheus/internal/jsonw"
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

// ChromeStream is an EventSink that writes Chrome trace-event JSON
// byte-identical to Tracer.WriteChromeTrace while holding only O(chunk)
// events in memory: events accumulate into fixed-size chunks, each chunk
// is stable-sorted by start time and spilled to a temporary spool file,
// and Close k-way-merges the chunks (start time, then emission order —
// exactly the buffered exporter's stable sort) into the destination.
type ChromeStream struct {
	mu       sync.Mutex
	w        io.Writer
	chunkCap int
	buf      []Event
	spools   []*os.File
	tracks   map[string]bool
	err      error
	closed   bool
}

// NewChromeStream returns a stream writing the merged trace to w on
// Close. The caller owns w (the stream never closes it).
func NewChromeStream(w io.Writer) *ChromeStream {
	return &ChromeStream{w: w, chunkCap: defaultChunkCap, tracks: map[string]bool{}}
}

// Emit accepts one event. Never fails; spill errors surface from Close.
func (c *ChromeStream) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return
	}
	c.tracks[e.Track] = true
	c.buf = append(c.buf, e)
	if len(c.buf) >= c.chunkCap {
		c.err = c.spillLocked()
	}
}

// spillLocked sorts the in-memory chunk and writes it to a fresh spool.
func (c *ChromeStream) spillLocked() error {
	sortChunk(c.buf)
	f, err := os.CreateTemp("", "morpheus-trace-*.spool")
	if err != nil {
		return fmt.Errorf("trace stream: spill: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := gob.NewEncoder(bw)
	for _, e := range c.buf {
		if err := enc.Encode(e); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("trace stream: spill: %w", err)
		}
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

// sortChunk stable-sorts events by start time, preserving emission order
// within equal starts — the same ordering Tracer.Events() produces.
func sortChunk(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
}

// chunkCursor reads one sorted chunk back, either from a spool file or
// the final in-memory chunk.
type chunkCursor struct {
	dec  *gob.Decoder // nil for the in-memory chunk
	mem  []Event
	pos  int
	head Event
	ok   bool
}

func (cc *chunkCursor) advance() error {
	if cc.dec == nil {
		if cc.pos >= len(cc.mem) {
			cc.ok = false
			return nil
		}
		cc.head = cc.mem[cc.pos]
		cc.pos++
		cc.ok = true
		return nil
	}
	var e Event
	switch err := cc.dec.Decode(&e); err {
	case nil:
		cc.head = e
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
		cursors = append(cursors, &chunkCursor{dec: gob.NewDecoder(bufio.NewReader(f))})
	}
	cursors = append(cursors, &chunkCursor{mem: c.buf}) // newest chunk last
	for _, cc := range cursors {
		if err := cc.advance(); err != nil {
			return err
		}
	}

	tracks := make([]string, 0, len(c.tracks))
	for tr := range c.tracks {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	pidOf, tidOf, unitNames := chromeLayout(tracks)

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
		writeChromeEvent(jw, cursors[best].head, pidOf, tidOf)
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

// writeChromeMeta writes one process_name or thread_name metadata event
// as chromeMetaEvents renders it under encoding/json.
func writeChromeMeta(jw *jsonw.Writer, name string, pid, tid int, arg string) {
	jw.BeginObject()
	jw.Key("name")
	jw.String(name)
	jw.Key("ph")
	jw.String("M")
	jw.Key("ts")
	jw.Int(0)
	jw.Key("pid")
	jw.Int(int64(pid))
	jw.Key("tid")
	jw.Int(int64(tid))
	jw.Key("args")
	jw.BeginObject()
	jw.Key("name")
	jw.String(arg)
	jw.EndObject()
	jw.EndObject()
}

// writeChromeEvent writes one recorded event with the fields, order and
// omissions of toChromeEvent's chromeEvent under encoding/json: spans are
// complete ("X") events with a duration, instants thread-scoped ("i"),
// and args holds the non-zero detail, parent and span in key order.
func writeChromeEvent(jw *jsonw.Writer, e Event, pidOf, tidOf map[string]int) {
	jw.BeginObject()
	jw.Key("name")
	jw.String(e.Name)
	point := e.Point()
	jw.Key("ph")
	if point {
		jw.String("i")
	} else {
		jw.String("X")
	}
	jw.Key("ts")
	jw.Float(float64(e.Start) / psPerMicro)
	if !point {
		jw.Key("dur")
		jw.Float(float64(e.End-e.Start) / psPerMicro)
	}
	jw.Key("pid")
	jw.Int(int64(pidOf[trackUnit(e.Track)]))
	jw.Key("tid")
	jw.Int(int64(tidOf[e.Track]))
	if point {
		jw.Key("s")
		jw.String("t")
	}
	if e.Span != 0 || e.Parent != 0 || e.Detail != "" {
		jw.Key("args")
		jw.BeginObject()
		if e.Detail != "" {
			jw.Key("detail")
			jw.String(e.Detail)
		}
		if e.Parent != 0 {
			jw.Key("parent")
			jw.Uint(uint64(e.Parent))
		}
		if e.Span != 0 {
			jw.Key("span")
			jw.Uint(uint64(e.Span))
		}
		jw.EndObject()
	}
	jw.EndObject()
}
