package stats

import (
	"strings"
	"testing"

	"morpheus/internal/units"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	s := r.Counters()
	r.TimedCounter(CtxSwitches).Add(0, 3)
	r.TimedCounter(CtxSwitches).Add(10, 4)
	r.TimedCounter(MemBusBytes).Add(20, 1024)
	if s.Get(CtxSwitches) != 7 {
		t.Fatalf("ctx = %d", s.Get(CtxSwitches))
	}
	if s.Bytes(MemBusBytes) != 1024 {
		t.Fatalf("membus = %v", s.Bytes(MemBusBytes))
	}
	if s.Get("never.written") != 0 {
		t.Fatal("unwritten counter must read zero")
	}
	s.Reset()
	if s.Get(CtxSwitches) != 0 {
		t.Fatal("reset failed")
	}
}

func TestNamesSortedAndString(t *testing.T) {
	r := NewRegistry()
	r.TimedCounter("b.counter").Add(0, 1)
	r.TimedCounter("a.counter").Add(0, 2)
	s := r.Counters()
	names := s.Names()
	if len(names) != 2 || names[0] != "a.counter" || names[1] != "b.counter" {
		t.Fatalf("names = %v", names)
	}
	out := s.String()
	if !strings.Contains(out, "a.counter=2") || !strings.Contains(out, "b.counter=1") {
		t.Fatalf("string = %q", out)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add(PhaseDeserialize, 64*units.Millisecond)
	b.Add(PhaseCPUCompute, 36*units.Millisecond)
	if b.Total() != 100*units.Millisecond {
		t.Fatalf("total = %v", b.Total())
	}
	if f := b.Fraction(PhaseDeserialize); f != 0.64 {
		t.Fatalf("deser fraction = %v", f)
	}
	if f := b.Fraction(PhaseGPUKernel); f != 0 {
		t.Fatalf("absent phase fraction = %v", f)
	}
	phases := b.Phases()
	if len(phases) != 2 || phases[0] != PhaseDeserialize {
		t.Fatalf("phases = %v", phases)
	}
	if !strings.Contains(b.String(), "64%") {
		t.Fatalf("string = %q", b.String())
	}
}

func TestEmptyBreakdown(t *testing.T) {
	b := NewBreakdown()
	if b.Fraction(PhaseDeserialize) != 0 {
		t.Fatal("empty breakdown fraction must be 0")
	}
	if b.Total() != 0 {
		t.Fatal("empty total must be 0")
	}
}
