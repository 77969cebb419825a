package gate

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const baseDoc = `{
 "counters": {"nvme.commands": 1000, "cmd.retries": 0},
 "histograms": {
  "nvme.MREAD.latency_ps": {"count": 500, "sum": 5000, "min": 5, "max": 40, "p50": 10, "p95": 20, "p99": 30,
   "buckets": [{"le": 16, "count": 400}, {"le": 64, "count": 100}]}
 },
 "gauges": {"host.cpu_util": {"samples": 9, "last": 0.5, "min": 0.1, "max": 0.9, "mean": 0.4}},
 "slos": {"all|nvme.MREAD.latency_ps": {"target_ps": 2000, "budget": 0.001, "total": 500,
  "violations": 1, "burn_rate": 2.0, "windows_violating": 1, "time_in_violation_ps": 100}}
}`

func load(t *testing.T, doc string) Artifact {
	t.Helper()
	a, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLoadFlattens(t *testing.T) {
	a := load(t, baseDoc)
	for p, want := range map[string]float64{
		"counters.nvme.commands":                              1000,
		"histograms.nvme.MREAD.latency_ps.p99":                30,
		"histograms.nvme.MREAD.latency_ps.buckets.0.count":    400,
		"gauges.host.cpu_util.mean":                           0.4,
		"slos.all|nvme.MREAD.latency_ps.time_in_violation_ps": 100,
	} {
		if got := a[p]; got != want {
			t.Errorf("a[%q] = %g, want %g", p, got, want)
		}
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	a, b := load(t, baseDoc), load(t, baseDoc)
	rep := Compare(a, b, nil, 0)
	if !rep.OK() || len(rep.Warnings) != 0 {
		t.Fatalf("identical artifacts failed the gate: %+v", rep)
	}
	if rep.Checked != len(a) {
		t.Fatalf("checked %d of %d metrics", rep.Checked, len(a))
	}
}

func TestCompareExactByDefault(t *testing.T) {
	a := load(t, baseDoc)
	b := load(t, strings.Replace(baseDoc, `"p99": 30`, `"p99": 31`, 1))
	rep := Compare(a, b, nil, 0)
	if rep.OK() {
		t.Fatal("1-unit drift passed a zero-tolerance gate")
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Path != "histograms.nvme.MREAD.latency_ps.p99" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
}

func TestToleranceAndDirection(t *testing.T) {
	a := load(t, baseDoc)
	up := load(t, strings.Replace(baseDoc, `"p99": 30`, `"p99": 32`, 1))   // +6.7%
	down := load(t, strings.Replace(baseDoc, `"p99": 30`, `"p99": 28`, 1)) // -6.7%

	rule := func(s string) []Rule {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatal(err)
		}
		return []Rule{r}
	}
	// 10% tolerance absorbs the move either way.
	if rep := Compare(a, up, rule("histograms.*.p99:0.10"), 0); !rep.OK() {
		t.Errorf("6.7%% up failed a 10%% gate: %+v", rep.Regressions)
	}
	// 5% does not.
	if rep := Compare(a, up, rule("histograms.*.p99:0.05"), 0); rep.OK() {
		t.Error("6.7% up passed a 5% gate")
	}
	// Directional: an "up" rule ignores improvements...
	if rep := Compare(a, down, rule("histograms.*.p99:0.05:up"), 0); !rep.OK() {
		t.Errorf("p99 improvement tripped an up-only rule: %+v", rep.Regressions)
	}
	// ...and a "down" rule ignores increases.
	if rep := Compare(a, up, rule("histograms.*.p99:0.05:down"), 0); !rep.OK() {
		t.Errorf("p99 increase tripped a down-only rule: %+v", rep.Regressions)
	}
	// off exempts entirely.
	if rep := Compare(a, up, rule("histograms.*.p99:0:off"), 0); !rep.OK() {
		t.Errorf("off rule still gated: %+v", rep.Regressions)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	a := load(t, baseDoc)
	b := load(t, strings.Replace(baseDoc, `"p99": 30`, `"p99": 32`, 1))
	loose, _ := ParseRule("histograms.*:0.5")
	tight, _ := ParseRule("histograms.*.p99:0")
	if rep := Compare(a, b, []Rule{loose, tight}, 0); !rep.OK() {
		t.Errorf("earlier loose rule should have governed: %+v", rep.Regressions)
	}
	if rep := Compare(a, b, []Rule{tight, loose}, 0); rep.OK() {
		t.Error("earlier tight rule should have failed the gate")
	}
}

func TestMissingIsFailureNewIsWarning(t *testing.T) {
	a := load(t, baseDoc)
	b := load(t, strings.Replace(baseDoc, `"cmd.retries": 0`, `"cmd.fresh": 0`, 1))
	rep := Compare(a, b, nil, 0)
	if rep.OK() {
		t.Fatal("missing baseline metric passed the gate")
	}
	var missing, fresh bool
	for _, f := range rep.Regressions {
		if f.Kind == "missing" && f.Path == "counters.cmd.retries" {
			missing = true
		}
	}
	for _, f := range rep.Warnings {
		if f.Kind == "new" && f.Path == "counters.cmd.fresh" {
			fresh = true
		}
	}
	if !missing || !fresh {
		t.Fatalf("missing=%v new-warning=%v: %+v / %+v", missing, fresh, rep.Regressions, rep.Warnings)
	}
}

func TestZeroBaselineMove(t *testing.T) {
	a := load(t, baseDoc)
	b := load(t, strings.Replace(baseDoc, `"cmd.retries": 0`, `"cmd.retries": 3`, 1))
	// Any finite tolerance trips on a move off zero.
	rep := Compare(a, b, []Rule{{Pattern: "counters.*", Tol: 0.5}}, 0)
	if rep.OK() {
		t.Fatal("retries appearing from zero passed a 50% gate")
	}
	if !math.IsInf(rep.Regressions[0].Delta, 1) {
		t.Errorf("delta = %g, want +Inf", rep.Regressions[0].Delta)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, s := range []string{"", "p99", "p99:x", "p99:-1", "*:NaN", "*:nan", "*:Inf", "*:+Inf", "*:-0.5", "p99:0.1:sideways", ":0.1", "p99:0.1:up:extra", "[:0.1"} {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) accepted", s)
		}
	}
	r, err := ParseRule("histograms.*.p99:0.05:up")
	if err != nil || r.Pattern != "histograms.*.p99" || r.Tol != 0.05 || r.Dir != Up {
		t.Fatalf("ParseRule: %+v, %v", r, err)
	}
}

func TestReportRendering(t *testing.T) {
	a := load(t, baseDoc)
	b := load(t, strings.Replace(baseDoc, `"p99": 30`, `"p99": 60`, 1))
	rep := Compare(a, b, nil, 0)
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "regressed histograms.nvme.MREAD.latency_ps.p99: 30 -> 60 (+100.00%)") {
		t.Errorf("report missing the regression line:\n%s", out)
	}
	if !strings.Contains(out, "gate failed") {
		t.Errorf("report missing the verdict:\n%s", out)
	}
}
