package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func testParseDur(s string) (int64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Nanoseconds() * 1000, nil
}

func TestParseSLO(t *testing.T) {
	c, err := ParseSLO("name=gold,metric=nvme.MREAD.latency_ps,target=2ms,budget=0.001", testParseDur)
	if err != nil {
		t.Fatal(err)
	}
	want := SLOConfig{Name: "gold", Metric: "nvme.MREAD.latency_ps", TargetPS: 2e9, Budget: 0.001}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	for _, bad := range []string{
		"",
		"metric=m",                          // no target/budget
		"metric=m,target=1ms",               // no budget
		"metric=m,target=1ms,budget=2",      // budget > 1
		"metric=m,target=-1ms,budget=0.1",   // negative target
		"metric=m,target=1ms,budget=0.1,x",  // malformed field
		"metric=m,target=oops,budget=0.1",   // bad duration
		"metric=m,target=1ms,budget=NaN",    // NaN passes no comparison
		"metric=m,target=1ms,budget=0.5abc", // trailing input
	} {
		if _, err := ParseSLO(bad, testParseDur); err == nil {
			t.Fatalf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestSLOViolationsAndBurn(t *testing.T) {
	r := NewRegistry()
	r.EnableSeries(100)
	r.AddSLO(SLOConfig{Name: "t", Metric: "lat", TargetPS: 10, Budget: 0.5})
	// Window 0: 1 of 2 over target → burn (0.5/0.5) = 1, not violating.
	r.Latency("lat").Observe(10, 5)
	r.Latency("lat").Observe(20, 50)
	// Window 1: 2 of 2 over target → burn 2, violating.
	r.Latency("lat").Observe(110, 50)
	r.Latency("lat").Observe(120, 50)
	// Unwatched metric never reaches the SLO.
	r.Latency("other").Observe(130, 1e9)
	f := decodeSeries(t, r)
	s := f.SLOs["t|lat"]
	if s.Total != 4 || s.Violations != 3 {
		t.Fatalf("summary = %+v, want total 4 violations 3", s)
	}
	if s.BurnRate != (3.0/4.0)/0.5 {
		t.Fatalf("burn rate = %g", s.BurnRate)
	}
	if s.WindowsViolating != 1 || s.TimeInViolationPS != 100 {
		t.Fatalf("violation accounting = %+v", s)
	}
	if w0 := f.Windows[0].SLOs["t|lat"]; w0 != (sloWindowJSON{Total: 2, Violations: 1, BurnRate: 1}) {
		t.Fatalf("window 0 slo = %+v", w0)
	}
	if w1 := f.Windows[1].SLOs["t|lat"]; w1 != (sloWindowJSON{Total: 2, Violations: 2, BurnRate: 2, Violating: true}) {
		t.Fatalf("window 1 slo = %+v", w1)
	}
}

func TestSLOWithoutSeries(t *testing.T) {
	// SLOs work standalone: everything lands in one run-wide window.
	r := NewRegistry()
	r.AddSLO(SLOConfig{Name: "t", Metric: "lat", TargetPS: 10, Budget: 0.1})
	r.Latency("lat").Observe(123, 99)
	r.Latency("lat").Observe(456, 1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		SLOs map[string]sloJSON `json:"slos"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	s := got.SLOs["t|lat"]
	if s.Total != 2 || s.Violations != 1 || s.TimeInViolationPS != 0 {
		t.Fatalf("slos block = %+v", s)
	}
}

func TestSLOMergeAdoptsAndAdds(t *testing.T) {
	mk := func() *Registry {
		p := NewRegistry()
		p.EnableSeries(100)
		p.AddSLO(SLOConfig{Name: "t", Metric: "lat", TargetPS: 10, Budget: 0.5})
		p.Latency("lat").Observe(50, 99)
		p.Latency("lat").Observe(150, 1)
		return p
	}
	agg := NewRegistry()
	agg.Merge(mk())
	agg.Merge(mk())
	f := decodeSeries(t, agg)
	s := f.SLOs["t|lat"]
	if s.Total != 4 || s.Violations != 2 {
		t.Fatalf("merged summary = %+v", s)
	}
	if w := f.Windows[0].SLOs["t|lat"]; w.Total != 2 || w.Violations != 2 {
		t.Fatalf("merged window 0 = %+v", w)
	}
}

// TestSLOPerWindowCountsAreExact pins that SLO violation counts come from
// the exact observations, not histogram buckets (log buckets would
// misclassify near-target values).
func TestSLOPerWindowCountsAreExact(t *testing.T) {
	r := NewRegistry()
	r.AddSLO(SLOConfig{Name: "t", Metric: "lat", TargetPS: 1000, Budget: 0.001})
	r.Latency("lat").Observe(1, 1000) // exactly at target: meets it
	r.Latency("lat").Observe(2, 1001) // one over: violates
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"violations": 1`) {
		t.Fatalf("want exactly 1 violation:\n%s", buf.String())
	}
}
