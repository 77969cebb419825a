package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"morpheus/internal/units"
)

// randomEvents builds a stream with the shapes the models produce:
// several units/tracks, span links, details, instants, and heavy
// same-start ties (the stable-sort hazard).
func randomEvents(rng *rand.Rand, n int) []Event {
	tracks := []string{"host", "nvme", "ssd.core0", "ssd.core1", "pcie", "flash.ch2"}
	names := []string{"MREAD", "vm-exec", "dma-out", "parse", "submit"}
	out := make([]Event, n)
	for i := range out {
		start := units.Time(rng.Intn(50)) * 100 // few distinct starts → many ties
		e := Event{
			Track: Intern(tracks[rng.Intn(len(tracks))]),
			Name:  Intern(names[rng.Intn(len(names))]),
			Start: start,
			End:   start + units.Time(rng.Intn(3))*50, // some instants
		}
		if rng.Intn(3) > 0 {
			e.Span = SpanID(i + 1)
		}
		if rng.Intn(2) > 0 {
			e.Parent = SpanID(rng.Intn(i + 1))
		}
		if rng.Intn(4) == 0 {
			e.Detail = Text(fmt.Sprintf("detail-%d", i))
		}
		out[i] = e
	}
	return out
}

// streamVsBuffered feeds the same events to the buffered exporter and a
// ChromeStream (with the given chunk size) and returns both outputs.
func streamVsBuffered(t *testing.T, events []Event, chunkCap int) (buffered, streamed string) {
	t.Helper()
	tr := New(0)
	for _, e := range events {
		recordEvent(tr, e)
	}
	var bb bytes.Buffer
	if err := tr.WriteChromeTrace(&bb); err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	cs := NewChromeStream(&sb)
	cs.chunkCap = chunkCap
	st := New(0)
	st.SetSink(cs)
	for _, e := range events {
		recordEvent(st, e)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return bb.String(), sb.String()
}

func TestChromeStreamByteIdenticalToBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(20160618))
	for _, tc := range []struct {
		n, chunk int
	}{
		{0, 16},    // empty trace
		{1, 16},    // single event, no spill
		{15, 16},   // fits one chunk exactly
		{16, 16},   // exactly one spill
		{500, 16},  // many spills
		{500, 7},   // odd chunk size
		{2000, 64}, // bigger
	} {
		events := randomEvents(rng, tc.n)
		buffered, streamed := streamVsBuffered(t, events, tc.chunk)
		if buffered != streamed {
			i := 0
			for i < len(buffered) && i < len(streamed) && buffered[i] == streamed[i] {
				i++
			}
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("n=%d chunk=%d: streamed trace diverges at byte %d:\nbuffered: ...%q\nstreamed: ...%q",
				tc.n, tc.chunk, i, buffered[lo:min(i+80, len(buffered))], streamed[lo:min(i+80, len(streamed))])
		}
		// And it is valid JSON with the expected envelope.
		var f struct {
			TraceEvents     []map[string]any `json:"traceEvents"`
			DisplayTimeUnit string           `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal([]byte(streamed), &f); err != nil {
			t.Fatalf("n=%d: streamed output not JSON: %v", tc.n, err)
		}
		if f.DisplayTimeUnit != "ns" {
			t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
		}
	}
}

// TestChromeStreamEscapedStrings: names, tracks and details that
// encoding/json escapes (HTML characters, quotes, backslashes, control
// bytes, non-ASCII, U+2028 and invalid UTF-8) must stream the same bytes
// as the buffered exporter, including through spilled chunks.
func TestChromeStreamEscapedStrings(t *testing.T) {
	awkward := []string{
		"a<b", "c>d", "a&b", `say "hi"`, `C:\path`, "tab\tnl\n", "\x00\x1f\x7f",
		"ünïcödé", "line\u2028sep", "bad\xff\xfeutf8", "plain",
	}
	rng := rand.New(rand.NewSource(4242))
	events := randomEvents(rng, 300)
	for i := range events {
		switch i % 4 {
		case 0:
			events[i].Detail = Text(awkward[rng.Intn(len(awkward))])
		case 1:
			events[i].Name = Intern(awkward[rng.Intn(len(awkward))])
		case 2:
			events[i].Track = Intern("ssd." + awkward[rng.Intn(len(awkward))])
		default:
			events[i].Track = Intern(awkward[rng.Intn(len(awkward))])
		}
	}
	for _, chunk := range []int{3, 16, 1000} {
		buffered, streamed := streamVsBuffered(t, events, chunk)
		if buffered != streamed {
			t.Fatalf("chunk=%d: streamed trace with escaped strings differs from buffered", chunk)
		}
	}
}

func TestChromeStreamWithSampling(t *testing.T) {
	// Sampling upstream of the sink: the streamed output must equal the
	// buffered export of the same sampled tracer.
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 800)
	policy := SamplePolicy{Head: 10, Latency: 60, KeepNames: []string{"dma-out"}, MaxPending: 32}

	tr := New(0)
	tr.SetSamplePolicy(policy)
	for _, e := range events {
		recordEvent(tr, e)
	}
	var bb bytes.Buffer
	if err := tr.WriteChromeTrace(&bb); err != nil {
		t.Fatal(err)
	}

	var sb bytes.Buffer
	cs := NewChromeStream(&sb)
	cs.chunkCap = 16
	st := New(0)
	st.SetSamplePolicy(policy)
	st.SetSink(cs)
	for _, e := range events {
		recordEvent(st, e)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if bb.String() != sb.String() {
		t.Fatal("sampled streamed trace differs from sampled buffered trace")
	}
	if st.Kept() != int64(tr.Len()) {
		t.Fatalf("sink kept %d, buffered kept %d", st.Kept(), tr.Len())
	}
}

func TestChromeStreamAdoptFold(t *testing.T) {
	// The -parallel fold with a streaming sink on the aggregate tracer:
	// adopting per-point tracers must stream the same bytes the buffered
	// aggregate writes.
	mkPoint := func(base int) *Tracer {
		p := New(0)
		for i := 0; i < 40; i++ {
			sp := p.Span(Intern("host"), Intern("submit"), Detail{}, 0, units.Time(base+i*10), units.Time(base+i*10+5))
			p.Span(Intern("ssd.core0"), Intern("parse"), Detail{}, sp, units.Time(base+i*10+5), units.Time(base+i*10+9))
		}
		return p
	}
	buffered := New(0)
	for pt := 0; pt < 4; pt++ {
		buffered.Adopt(mkPoint(pt * 1000))
	}
	var bb bytes.Buffer
	if err := buffered.WriteChromeTrace(&bb); err != nil {
		t.Fatal(err)
	}

	var sb bytes.Buffer
	cs := NewChromeStream(&sb)
	cs.chunkCap = 32
	streamed := New(0)
	streamed.SetSink(cs)
	for pt := 0; pt < 4; pt++ {
		streamed.Adopt(mkPoint(pt * 1000))
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if bb.String() != sb.String() {
		t.Fatal("streamed fold differs from buffered fold")
	}
}

func TestChromeStreamCloseIdempotent(t *testing.T) {
	var sb bytes.Buffer
	cs := NewChromeStream(&sb)
	cs.Emit(Event{Track: Intern("host"), Name: Intern("a")})
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	n := sb.Len()
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != n {
		t.Fatal("second Close wrote more bytes")
	}
	cs.Emit(Event{Track: Intern("host"), Name: Intern("b")}) // ignored after close
	if sb.Len() != n {
		t.Fatal("Emit after Close wrote bytes")
	}
}

// TestSpoolRecordRoundTrip sets every field of an Event to a distinct
// value with its high bits set, so a field the spool record drops or
// truncates, including one added to Event later, fails the round trip.
func TestSpoolRecordRoundTrip(t *testing.T) {
	var e Event
	next := uint64(0x8000_0000_0000_0000)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Int32, reflect.Int64:
			next += 0x0101_0101_0101_0101
			v.SetInt(int64(next))
		case reflect.Uint32, reflect.Uint64:
			next += 0x0101_0101_0101_0101
			v.SetUint(next)
		default:
			t.Fatalf("Event holds a %v the spool record does not encode", v.Type())
		}
	}
	fill(reflect.ValueOf(&e).Elem())
	var rec [recordSize]byte
	if b := putRecord(&rec, e); len(b) != recordSize {
		t.Fatalf("record is %d bytes, want %d", len(b), recordSize)
	}
	if got := getRecord(&rec); got != e {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, e)
	}
}

// extremeKind is a detail kind that prints all three arguments whole,
// so FuzzChromeStream can drive each one to its extremes.
var extremeKind = RegisterDetail(func(dst []byte, a [3]int64) []byte {
	return fmt.Appendf(dst, "a=%d <b>=%#x c&%v", a[0], uint64(a[1]), math.Float64frombits(uint64(a[2])))
})

var (
	fuzzTracks  = []string{"host", "nvme", "ssd.core0", "ssd.<&>", "ünï.cödé", `q"t`, "", "a.b.c", "flash.ch1"}
	fuzzEvNames = []string{"MREAD", "", "dma-out", "x<y>&z", "tab\there", "line\u2028sep", "bad\xffutf8", "🙂"}
	extremes    = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxUint32, 1 << 31, 999_999, 1_000_000,
		1e15 + 1, 1<<53 + 1, int64(math.Float64bits(math.NaN())), int64(math.Float64bits(math.Inf(-1))), int64(math.Float64bits(0.5))}
)

// fuzzEvents decodes data, eight bytes per event and at most 64 events,
// into events over awkward tracks and names, every detail kind this test
// binary registers with its arguments at extremes, points and spans, and
// runs of equal start times.
func fuzzEvents(data []byte) []Event {
	kinds := len(*detailFormats.Load()) // kind 0 is no detail
	var events []Event
	var start units.Time
	for ; len(data) >= 8 && len(events) < 64; data = data[8:] {
		b := data[:8]
		switch b[3] % 4 {
		case 0: // same start as the previous event
		case 1:
			start += units.Time(b[3])
		default:
			start = units.Time(extremes[int(b[3])%len(extremes)] & (1<<62 - 1))
		}
		e := Event{
			Track: Intern(fuzzTracks[int(b[0])%len(fuzzTracks)]),
			Name:  Intern(fuzzEvNames[int(b[1])%len(fuzzEvNames)]),
			Start: start,
			End:   start + units.Time(b[4]%4)*units.Time(extremes[int(b[4])%len(extremes)]&(1<<40-1)),
		}
		d := Detail{Kind: DetailKind(int(b[2]) % kinds)}
		for i := range d.Args {
			d.Args[i] = extremes[int(b[5+i])%len(extremes)]
		}
		if d.Kind == textKind { // its argument is a Name
			d.Args[0] = int64(Intern(fuzzEvNames[int(b[5])%len(fuzzEvNames)]))
		}
		e.Detail = d
		if b[6]&1 != 0 {
			e.Span = SpanID(extremes[int(b[7])%len(extremes)])
		}
		if b[6]&2 != 0 {
			e.Parent = SpanID(extremes[int(b[5])%len(extremes)])
		}
		events = append(events, e)
	}
	return events
}

// FuzzChromeStream holds ChromeStream, spilling chunks of 1 to 8 events,
// to the buffered encoding/json exporter over random event sets.
func FuzzChromeStream(f *testing.F) {
	f.Add([]byte("host-0-1host-0-1nvme12345678ssd.abcdefgh"), uint8(0))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 3, 4, 3, 3, 1, 0, 0, 5, 7, 9, 5, 4, 2, 2, 3, 1, 1, 1, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		events := fuzzEvents(data)
		chunkCap := int(chunk%8) + 1
		if buffered, streamed := streamVsBuffered(t, events, chunkCap); buffered != streamed {
			t.Fatalf("chunk cap %d, %d events %+v: streamed\n%s\nbuffered\n%s", chunkCap, len(events), events, streamed, buffered)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
