package core

import (
	"strings"
	"testing"
)

func TestTraceCapturesCommandPipeline(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	tr := sys.EnableTrace(0)
	data, _ := testInput(1<<14, 2)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no events traced")
	}
	names := map[string]bool{}
	for _, e := range tr.Events() {
		names[e.Name.String()] = true
	}
	for _, want := range []string{"MINIT", "MREAD", "MDEINIT", "storageapp"} {
		if !names[want] {
			t.Fatalf("trace missing %q events: %v", want, names)
		}
	}
	// StorageApp slots must appear on an embedded-core track.
	found := false
	for _, track := range tr.Tracks() {
		if strings.HasPrefix(track, "ssd.core") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no embedded-core track in %v", tr.Tracks())
	}
	var gantt strings.Builder
	tr.WriteGantt(&gantt, 40)
	if !strings.Contains(gantt.String(), "#") {
		t.Fatal("gantt rendered empty")
	}
}
