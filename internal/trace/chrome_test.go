package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"morpheus/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a small, fully deterministic trace exercising every
// exporter feature: multiple units, multiple tracks per unit, span
// parentage, point events, and detail args.
func goldenTracer() *Tracer {
	tr := New(0)
	span := func(track, name, detail string, parent SpanID, start, end units.Time) SpanID {
		return tr.Span(Intern(track), Intern(name), Text(detail), parent, start, end)
	}
	root := span("host", "submit", "op=MREAD cid=1", 0, 1_000_000, 2_000_000)
	span("nvme", "MREAD", "cid=1", root, 2_000_000, 9_000_000)
	span("ssd.core0", "storageapp", "", root, 3_000_000, 8_000_000)
	span("ftl", "map", "lba=7", root, 3_500_000, 3_500_000) // point
	span("flash.ch2", "read", "ch2/w0/d1", root, 4_000_000, 6_000_000)
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file; rerun with -update if intended\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceRoundTrip parses the export back and checks the
// structural invariants Perfetto relies on.
func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	procs := map[int]string{}
	threads := map[[2]int]string{}
	var complete, instant int
	for _, e := range f.TraceEvents {
		switch e.Phase {
		case "M":
			switch e.Name {
			case "process_name":
				procs[e.PID] = e.Args["name"].(string)
			case "thread_name":
				threads[[2]int{e.PID, e.TID}] = e.Args["name"].(string)
			}
		case "X":
			complete++
			if e.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", e.Name, e.Dur)
			}
		case "i":
			instant++
			if e.Scope != "t" {
				t.Errorf("instant event %q scope = %q", e.Name, e.Scope)
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	// 5 units: flash, ftl, host, nvme, ssd; 5 tracks.
	if len(procs) != 5 || len(threads) != 5 {
		t.Fatalf("procs=%v threads=%v", procs, threads)
	}
	if complete != 4 || instant != 1 {
		t.Fatalf("complete=%d instant=%d", complete, instant)
	}
	// Every non-metadata event's (pid,tid) must resolve to a named thread
	// whose unit matches the process name.
	for _, e := range f.TraceEvents {
		if e.Phase == "M" {
			continue
		}
		track, ok := threads[[2]int{e.PID, e.TID}]
		if !ok {
			t.Fatalf("event %q on unnamed thread pid=%d tid=%d", e.Name, e.PID, e.TID)
		}
		if trackUnit(track) != procs[e.PID] {
			t.Errorf("track %q filed under process %q", track, procs[e.PID])
		}
		// host submit is the root; everything else links back to it.
		if track == "host" {
			if _, ok := e.Args["span"]; !ok {
				t.Error("host submit lost its span arg")
			}
		} else if e.Args["parent"] != float64(1) {
			t.Errorf("%s event %q parent = %v, want 1", track, e.Name, e.Args["parent"])
		}
	}
	// ts/dur are microseconds: the host span ran 1µs..2µs.
	for _, e := range f.TraceEvents {
		if e.Phase == "X" && e.Name == "submit" {
			if e.TS != 1 || e.Dur != 1 {
				t.Errorf("submit ts=%v dur=%v, want 1,1 µs", e.TS, e.Dur)
			}
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenTracer().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical tracers exported different bytes")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(0).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("empty export is not valid JSON: %v", err)
	}
	if ev, ok := f["traceEvents"].([]any); !ok || len(ev) != 0 {
		t.Fatalf("empty tracer must export an empty traceEvents array, got %v", f["traceEvents"])
	}
}

func TestTrackUnit(t *testing.T) {
	cases := map[string]string{
		"nvme": "nvme", "host": "host", "ssd.core3": "ssd",
		"flash.ch11": "flash", "pcie.gpu0": "pcie", "a.b.c": "a",
	}
	for in, want := range cases {
		if got := trackUnit(in); got != want {
			t.Errorf("trackUnit(%q) = %q, want %q", in, got, want)
		}
	}
}
