package exp

import (
	"reflect"
	"testing"
)

// TestExperimentsRegistry: every experiment has a unique name, a title
// and a runner, and the registry keeps the order `morpheusbench -list`
// has always printed (the paper's artifacts first, then the extensions).
func TestExperimentsRegistry(t *testing.T) {
	want := []string{"table1", "fig3", "profile", "apps", "slowhost", "multiprog",
		"serialize", "faults", "cachesweep", "serve", "array", "ablation"}
	var got []string
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q lacks a title or a runner", e.Name)
		}
		got = append(got, e.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry order = %v, want %v", got, want)
	}
}
