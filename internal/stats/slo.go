package stats

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"morpheus/internal/jsonw"
)

// SLOConfig declares a latency service-level objective over one latency
// metric: observations above TargetPS are violations, and Budget is the
// tolerated violation fraction (e.g. 0.001 = 99.9% of observations must
// meet the target). Name scopes the objective (a tenant, an app, "all");
// the pair (Name, Metric) identifies it in every artifact as
// "name|metric".
type SLOConfig struct {
	Name     string  // scope, e.g. a multiprog tenant ("pagerank")
	Metric   string  // latency metric watched, e.g. "nvme.MREAD.latency_ps"
	TargetPS int64   // latency target in picoseconds
	Budget   float64 // tolerated violation fraction in (0, 1]
}

// Key returns the artifact key "name|metric".
func (c SLOConfig) Key() string { return c.Name + "|" + c.Metric }

// ParseSLO parses "name=gold,metric=nvme.MREAD.latency_ps,target=2ms,budget=0.001"
// where target takes Go duration syntax. parseDur converts a duration
// string to picoseconds (injected so this package stays free of a units
// dependency).
func ParseSLO(s string, parseDur func(string) (int64, error)) (SLOConfig, error) {
	var c SLOConfig
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return c, fmt.Errorf("slo: malformed field %q (want key=value)", part)
		}
		switch kv[0] {
		case "name":
			c.Name = kv[1]
		case "metric":
			c.Metric = kv[1]
		case "target":
			ps, err := parseDur(kv[1])
			if err != nil {
				return c, fmt.Errorf("slo: bad target %q: %w", kv[1], err)
			}
			c.TargetPS = ps
		case "budget":
			b, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return c, fmt.Errorf("slo: bad budget %q", kv[1])
			}
			c.Budget = b
		default:
			return c, fmt.Errorf("slo: unknown field %q", kv[0])
		}
	}
	// Written so that a NaN budget fails too.
	if c.Metric == "" || c.TargetPS <= 0 || !(c.Budget > 0 && c.Budget <= 1) {
		return c, fmt.Errorf("slo: need metric=..., target>0, budget in (0,1]: %q", s)
	}
	return c, nil
}

// sloState is one objective's accumulated counts: run-wide and per
// series window (window 0 stands in for the whole run when the series is
// off).
type sloState struct {
	cfg     SLOConfig
	total   int64
	bad     int64
	windows map[int64]*sloWindow
	// cur is windows[curIdx], the window the last observation landed in,
	// so in-order observations skip the map.
	cur    *sloWindow
	curIdx int64
}

type sloWindow struct {
	total int64
	bad   int64
}

func newSLOState(cfg SLOConfig) *sloState {
	return &sloState{cfg: cfg, windows: map[int64]*sloWindow{}}
}

// observe records one latency observation landing in series window widx.
func (s *sloState) observe(widx int64, v int64) {
	w := s.cur
	if w == nil || s.curIdx != widx {
		w = s.window(widx)
		s.cur, s.curIdx = w, widx
	}
	w.total++
	s.total++
	if v > s.cfg.TargetPS {
		w.bad++
		s.bad++
	}
}

// window returns window idx's counts, creating them.
func (s *sloState) window(idx int64) *sloWindow {
	w := s.windows[idx]
	if w == nil {
		w = &sloWindow{}
		s.windows[idx] = w
	}
	return w
}

// merge adds o's run-wide and per-window counts into s.
func (s *sloState) merge(o *sloState) {
	s.total += o.total
	s.bad += o.bad
	for idx, w := range o.windows {
		dw := s.window(idx)
		dw.total += w.total
		dw.bad += w.bad
	}
}

// reset clears the counts and keeps the configuration.
func (s *sloState) reset() {
	s.total, s.bad = 0, 0
	s.windows = map[int64]*sloWindow{}
	s.cur = nil
}

// burnRate is the window's error-budget burn: (bad/total)/budget. 1.0
// means the window consumed budget exactly at the sustainable rate; >1
// means the objective is violated over that window.
func (s *sloState) burnRate(w *sloWindow) float64 {
	if w == nil || w.total == 0 || s.cfg.Budget <= 0 {
		return 0
	}
	return float64(w.bad) / float64(w.total) / s.cfg.Budget
}

func (s *sloState) violating(w *sloWindow) bool {
	return w != nil && w.total > 0 && float64(w.bad)/float64(w.total) > s.cfg.Budget
}

// AddSLO registers an objective on the registry. Registering the same
// (Name, Metric) pair again replaces its configuration and keeps its
// counts. Observations reach SLOs only through Latency handles,
// including handles resolved before the objective was added.
func (r *Registry) AddSLO(cfg SLOConfig) {
	if r.slos == nil {
		r.slos = map[string]*sloState{}
	}
	key := cfg.Key()
	if s := r.slos[key]; s != nil {
		s.cfg = cfg
		return
	}
	s := newSLOState(cfg)
	r.slos[key] = s
	// The watched metric's handles carry its objectives. Keep that list
	// in key order so any emission or fold that walks it is
	// deterministic.
	m := r.lat(metricIDs.ID(cfg.Metric))
	m.slos = append(m.slos, s)
	sort.Slice(m.slos, func(i, j int) bool { return m.slos[i].cfg.Key() < m.slos[j].cfg.Key() })
}

// SLOConfigs returns the registered objectives sorted by key.
func (r *Registry) SLOConfigs() []SLOConfig {
	out := make([]SLOConfig, 0, len(r.slos))
	for _, key := range sortedNames(nil, r.slos) {
		out = append(out, r.slos[key].cfg)
	}
	return out
}

// sloAt is one of an SLO's windows and its index.
type sloAt struct {
	idx int64
	w   *sloWindow
}

// sortedWindows returns the SLO's windows by ascending index.
func (s *sloState) sortedWindows() []sloAt {
	out := make([]sloAt, 0, len(s.windows))
	for idx, w := range s.windows {
		out = append(out, sloAt{idx, w})
	}
	slices.SortFunc(out, func(a, b sloAt) int { return cmp.Compare(a.idx, b.idx) })
	return out
}

// windowsViolating counts the series windows that overran the budget.
func (s *sloState) windowsViolating() int64 {
	var n int64
	for _, w := range s.windows {
		if s.violating(w) {
			n++
		}
	}
	return n
}

// writeSLOSummary writes the run-wide SLO block, one object per
// objective keyed "name|metric".
func (r *Registry) writeSLOSummary(jw *jsonw.Writer) {
	jw.BeginObject()
	for _, key := range sortedNames(nil, r.slos) {
		s := r.slos[key]
		violating := s.windowsViolating()
		jw.Key(key)
		jw.BeginObject()
		jw.Key("target_ps")
		jw.Int(s.cfg.TargetPS)
		jw.Key("budget")
		jw.Float(s.cfg.Budget)
		jw.Key("total")
		jw.Int(s.total)
		jw.Key("violations")
		jw.Int(s.bad)
		jw.Key("burn_rate")
		jw.Float(s.burnRate(&sloWindow{total: s.total, bad: s.bad}))
		jw.Key("windows_violating")
		jw.Int(violating)
		jw.Key("time_in_violation_ps")
		jw.Int(violating * r.SeriesWindow())
		jw.EndObject()
	}
	jw.EndObject()
}
