// Package gate implements the CI perf-regression gate: it loads two
// metrics artifacts (the JSON the stats.Registry writes — counters,
// histogram quantiles, gauges, SLO summaries), flattens them into
// dotted metric paths, and compares new against old under per-metric
// tolerance rules. cmd/morpheuscheck is the CLI wrapper; CI runs it
// between a trusted baseline artifact and the candidate's.
package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Artifact is one flattened metrics artifact: every numeric leaf of the
// JSON document keyed by its dotted path, e.g.
// "histograms.nvme.MREAD.latency_ps.p99" or "counters.nvme.commands".
type Artifact map[string]float64

// Load parses a metrics artifact from r. Any JSON document works — the
// flattener keeps numeric leaves (objects and arrays are walked, array
// elements keyed by index) and ignores everything else — so both the
// whole-run metrics artifact and the windowed time-series artifact
// gate cleanly.
func Load(r io.Reader) (Artifact, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("gate: parse artifact: %w", err)
	}
	a := Artifact{}
	flatten("", doc, a)
	return a, nil
}

func flatten(prefix string, v any, out Artifact) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			flatten(join(prefix, k), sub, out)
		}
	case []any:
		for i, sub := range x {
			flatten(join(prefix, strconv.Itoa(i)), sub, out)
		}
	case json.Number:
		if f, err := x.Float64(); err == nil {
			out[prefix] = f
		}
	}
}

func join(prefix, k string) string {
	if prefix == "" {
		return k
	}
	return prefix + "." + k
}

// Direction says which way a metric is allowed to move without tripping
// the gate.
type Direction int

const (
	// Both flags movement either way past the tolerance.
	Both Direction = iota
	// Up flags only increases (latency-like metrics: higher is worse).
	Up
	// Down flags only decreases (throughput-like metrics: lower is worse).
	Down
	// Off exempts the metric entirely.
	Off
)

func (d Direction) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	case Off:
		return "off"
	}
	return "both"
}

// Rule binds a tolerance to every metric path matching a glob pattern
// (path.Match syntax; '*' crosses dots, so "histograms.*.p99" covers
// every histogram's tail). Rules are checked in order; the first match
// wins.
type Rule struct {
	Pattern string
	// Tol is the tolerated relative change, e.g. 0.05 allows 5%. Zero
	// demands exact equality.
	Tol float64
	Dir Direction
}

// ValidTolerance reports whether tol is usable as a relative tolerance:
// finite and at least zero. Every |delta| > NaN check is false, so a NaN
// tolerance would pass any change, and a negative one fails even
// identical artifacts.
func ValidTolerance(tol float64) bool { return tol >= 0 && !math.IsInf(tol, 1) }

// ParseRule parses "pattern:tol[:up|down|both|off]".
func ParseRule(s string) (Rule, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Rule{}, fmt.Errorf("gate: rule %q: want pattern:tol[:direction]", s)
	}
	r := Rule{Pattern: parts[0]}
	if r.Pattern == "" {
		return Rule{}, fmt.Errorf("gate: rule %q: empty pattern", s)
	}
	if _, err := path.Match(r.Pattern, "probe"); err != nil {
		return Rule{}, fmt.Errorf("gate: rule %q: bad pattern: %w", s, err)
	}
	tol, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !ValidTolerance(tol) {
		return Rule{}, fmt.Errorf("gate: rule %q: bad tolerance %q", s, parts[1])
	}
	r.Tol = tol
	if len(parts) == 3 {
		switch parts[2] {
		case "up":
			r.Dir = Up
		case "down":
			r.Dir = Down
		case "both":
			r.Dir = Both
		case "off":
			r.Dir = Off
		default:
			return Rule{}, fmt.Errorf("gate: rule %q: bad direction %q", s, parts[2])
		}
	}
	return r, nil
}

// Finding is one flagged metric.
type Finding struct {
	Path     string
	Old, New float64
	// Delta is the relative change (new-old)/old; ±Inf when old is zero
	// and new is not.
	Delta float64
	// Kind is "regression" (moved past tolerance), "missing" (present in
	// the baseline, absent in the candidate), or "new" (the reverse).
	Kind string
	// Rule is the pattern that governed the comparison ("" = default).
	Rule string
}

func (f Finding) String() string {
	switch f.Kind {
	case "missing":
		return fmt.Sprintf("missing  %s (baseline %g)", f.Path, f.Old)
	case "new":
		return fmt.Sprintf("new      %s = %g", f.Path, f.New)
	}
	return fmt.Sprintf("regressed %s: %g -> %g (%+.2f%%)", f.Path, f.Old, f.New, 100*f.Delta)
}

// Report is one gate run's outcome. Regressions (including metrics
// missing from the candidate) fail the gate; metrics that only appear
// in the candidate are warnings, since a new metric cannot regress.
type Report struct {
	Regressions []Finding
	Warnings    []Finding
	// Checked counts baseline metrics that were actually compared
	// (matched a non-Off rule and existed in both artifacts).
	Checked int
}

// OK reports whether the gate passes.
func (r *Report) OK() bool { return len(r.Regressions) == 0 }

// Render prints the report human-readably.
func (r *Report) Render(w io.Writer) {
	for _, f := range r.Regressions {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, f := range r.Warnings {
		fmt.Fprintf(w, "warn %s\n", f)
	}
	if r.OK() {
		fmt.Fprintf(w, "ok: %d metrics within tolerance (%d new)\n", r.Checked, len(r.Warnings))
	} else {
		fmt.Fprintf(w, "gate failed: %d regression(s) across %d checked metrics\n",
			len(r.Regressions), r.Checked)
	}
}

// ruleFor resolves the governing rule for one metric path: the first
// matching rule, else a default-tolerance Both rule.
func ruleFor(p string, rules []Rule, defaultTol float64) Rule {
	for _, r := range rules {
		if ok, _ := path.Match(r.Pattern, p); ok {
			return r
		}
	}
	return Rule{Tol: defaultTol}
}

// Compare gates the candidate artifact against the baseline. Paths are
// visited in sorted order, so reports are deterministic.
func Compare(baseline, candidate Artifact, rules []Rule, defaultTol float64) *Report {
	rep := &Report{}
	paths := make([]string, 0, len(baseline))
	for p := range baseline {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		old := baseline[p]
		rule := ruleFor(p, rules, defaultTol)
		if rule.Dir == Off {
			continue
		}
		now, ok := candidate[p]
		if !ok {
			rep.Regressions = append(rep.Regressions, Finding{
				Path: p, Old: old, Kind: "missing", Rule: rule.Pattern,
			})
			continue
		}
		rep.Checked++
		delta := relDelta(old, now)
		bad := math.Abs(delta) > rule.Tol
		switch rule.Dir {
		case Up:
			bad = delta > rule.Tol
		case Down:
			bad = delta < -rule.Tol
		}
		if bad {
			rep.Regressions = append(rep.Regressions, Finding{
				Path: p, Old: old, New: now, Delta: delta, Kind: "regression", Rule: rule.Pattern,
			})
		}
	}
	news := make([]string, 0)
	for p := range candidate {
		if _, ok := baseline[p]; !ok {
			news = append(news, p)
		}
	}
	sort.Strings(news)
	for _, p := range news {
		if ruleFor(p, rules, defaultTol).Dir == Off {
			continue
		}
		rep.Warnings = append(rep.Warnings, Finding{Path: p, New: candidate[p], Kind: "new"})
	}
	return rep
}

// relDelta is the relative change from old to new; a move off an exact
// zero is ±Inf, so it trips any finite tolerance.
func relDelta(old, now float64) float64 {
	if now == old {
		return 0
	}
	if old == 0 {
		return math.Inf(int(math.Copysign(1, now)))
	}
	return (now - old) / math.Abs(old)
}
