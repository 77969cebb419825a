package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"morpheus/internal/units"
)

func TestResourceSerializesOverlap(t *testing.T) {
	r := NewResource("r")
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire: %v..%v", s1, e1)
	}
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("contended acquire: %v..%v, want 10..20", s2, e2)
	}
	if r.Waited() != 5 {
		t.Fatalf("waited = %v, want 5", r.Waited())
	}
}

func TestResourceBackfill(t *testing.T) {
	// Future work recorded first must not block an earlier-ready request
	// that fits a gap (the property the pipelined command train needs).
	r := NewResource("r")
	r.Acquire(100, 50) // occupies [100,150)
	s, e := r.Acquire(0, 30)
	if s != 0 || e != 30 {
		t.Fatalf("backfill got %v..%v, want 0..30", s, e)
	}
	// A request too large for the gap goes after the future work.
	s, e = r.Acquire(40, 80)
	if s != 150 || e != 230 {
		t.Fatalf("large request got %v..%v, want 150..230", s, e)
	}
	// The remaining gap [30,100) still serves small requests.
	s, e = r.Acquire(0, 70)
	if s != 30 || e != 100 {
		t.Fatalf("gap fill got %v..%v, want 30..100", s, e)
	}
}

func TestResourceZeroDuration(t *testing.T) {
	r := NewResource("r")
	r.Acquire(0, 100)
	s, e := r.Acquire(50, 0)
	if s != 50 || e != 50 {
		t.Fatalf("zero-duration acquire should not queue: %v..%v", s, e)
	}
}

// TestResourceNoOverlapProperty checks the central ledger invariant: no
// two granted intervals overlap, and every grant starts at or after its
// ready time.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct {
		Ready uint16
		Dur   uint8
	}) bool {
		r := NewResource("prop")
		type iv struct{ s, e units.Time }
		var granted []iv
		for _, q := range reqs {
			d := units.Duration(q.Dur)
			s, e := r.Acquire(units.Time(q.Ready), d)
			if s < units.Time(q.Ready) || e != s.Add(d) {
				return false
			}
			if d > 0 {
				granted = append(granted, iv{s, e})
			}
		}
		sort.Slice(granted, func(i, j int) bool { return granted[i].s < granted[j].s })
		for i := 1; i < len(granted); i++ {
			if granted[i].s < granted[i-1].e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestResourceBusyTimeProperty: busy time equals the sum of requested
// durations and never exceeds the span the resource was busy over.
func TestResourceBusyTimeProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		r := NewResource("prop")
		var want units.Duration
		for _, d := range durs {
			r.Acquire(0, units.Duration(d))
			want += units.Duration(d)
		}
		if r.BusyTime() != want {
			return false
		}
		return r.BusyTime() <= units.Duration(r.BusyUntil())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPoolPrefersEarliestStart(t *testing.T) {
	p := NewPool("cpu", 2)
	p.Acquire(0, 100) // member 0 busy
	s, _ := p.Acquire(0, 50)
	if s != 0 {
		t.Fatalf("second acquire should land on the idle member, started at %v", s)
	}
	// Both busy until 50/100; next request ready 0 should pick member 1
	// (free at 50).
	s, _ = p.Acquire(0, 10)
	if s != 50 {
		t.Fatalf("third acquire start = %v, want 50", s)
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestPoolPinnedMember(t *testing.T) {
	p := NewPool("core", 4)
	if p.Member(5) != p.Member(1) {
		t.Fatal("member indexing must wrap")
	}
}

func TestPipeBandwidth(t *testing.T) {
	pipe := NewPipe("link", 0, units.Bandwidth(1000)) // 1000 B/s
	_, e := pipe.Transfer(0, 500)
	if got := units.Duration(e); got != 500*units.Millisecond {
		t.Fatalf("500B at 1000B/s = %v, want 500ms", got)
	}
	if pipe.Moved() != 500 {
		t.Fatalf("moved = %v", pipe.Moved())
	}
}

func TestPipeLatencyAndSerialization(t *testing.T) {
	pipe := NewPipe("link", 10*units.Millisecond, units.Bandwidth(1000))
	_, e1 := pipe.Transfer(0, 100) // 10ms + 100ms
	s2, _ := pipe.Transfer(0, 100)
	if units.Duration(e1) != 110*units.Millisecond {
		t.Fatalf("e1 = %v", e1)
	}
	if s2 != e1 {
		t.Fatalf("second transfer must queue: started %v, want %v", s2, e1)
	}
}

func TestPipeReset(t *testing.T) {
	p := NewPipe("x", 0, units.Bandwidth(1000))
	p.Transfer(0, 100)
	if p.Moved() != 100 || p.Transfers() != 1 || p.BusyTime() == 0 {
		t.Fatal("stats not recorded")
	}
	p.Reset()
	if p.Moved() != 0 || p.Transfers() != 0 || p.BusyTime() != 0 {
		t.Fatal("reset incomplete")
	}
	if p.Name() != "x" || p.Bandwidth() != 1000 {
		t.Fatal("identity lost on reset")
	}
}

func TestPoolBusyTimeAndReset(t *testing.T) {
	p := NewPool("c", 2)
	p.Acquire(0, 10)
	p.Acquire(0, 20)
	if p.BusyTime() != 30 {
		t.Fatalf("pool busy = %v", p.BusyTime())
	}
	p.Reset()
	if p.BusyTime() != 0 {
		t.Fatal("pool reset incomplete")
	}
	if p.Name() != "c" {
		t.Fatal("name")
	}
}

func TestResourceAccessors(t *testing.T) {
	r := NewResource("r")
	r.Acquire(5, 10)
	if r.Name() != "r" || r.Acquires() != 1 || r.BusyUntil() != 15 {
		t.Fatalf("accessors: %v %v %v", r.Name(), r.Acquires(), r.BusyUntil())
	}
}
