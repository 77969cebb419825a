package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
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
// as the buffered exporter, including through gob-spilled chunks.
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
