package stats

import (
	"strings"
	"testing"
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
