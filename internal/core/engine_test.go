package core

import (
	"fmt"
	"testing"

	"morpheus/internal/serial"
	"morpheus/internal/stats"
)

// TestOneEngineEventPerCommand: the firmware body runs inline, so the
// engine's only traffic is the driver's deferred CQE post/reap — exactly
// one fired event per NVMe command, on the Morpheus and the conventional
// path alike, with none left queued once the host has reaped them all.
// Each path reads a large file and then a small one, both from time
// zero, as the threads of a multi-threaded app do: the small file's
// completions lie behind the engine clock the large one left.
func TestOneEngineEventPerCommand(t *testing.T) {
	large, _ := testInput(1<<16, 9)
	small, _ := testInput(1<<12, 10)
	stage := func(t *testing.T, sys *System) []*File {
		t.Helper()
		var files []*File
		for i, data := range [][]byte{large, small} {
			f, err := sys.WriteFile(fmt.Sprint(i), data)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		sys.ResetTimers()
		return files
	}
	check := func(t *testing.T, sys *System) {
		t.Helper()
		cmds := sys.Counters.Get(stats.NVMeCommands)
		if cmds == 0 {
			t.Fatal("no NVMe commands issued")
		}
		if fired := sys.Engine.Fired(); fired != cmds {
			t.Fatalf("engine fired %d events for %d NVMe commands, want one per command", fired, cmds)
		}
		if got := sys.Engine.Pending(); got != 0 {
			t.Fatalf("%d completion events still queued after the host reaped every command", got)
		}
	}
	t.Run("morpheus", func(t *testing.T) {
		sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
		for _, f := range stage(t, sys) {
			if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f}); err != nil {
				t.Fatal(err)
			}
		}
		check(t, sys)
	})
	t.Run("conventional", func(t *testing.T) {
		sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
		parser := serial.TokenParser{Kind: serial.FieldInt32}
		for i, f := range stage(t, sys) {
			if _, err := sys.DeserializeConventional(0, f,
				func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
				ParseSpec{}, i, nil); err != nil {
				t.Fatal(err)
			}
		}
		check(t, sys)
	})
}

// TestEngineResetCoversPendingEvents: ResetTimers is the setup/measurement
// boundary; interrupt events a setup phase left undelivered must not leak
// into the measured run.
func TestEngineResetCoversPendingEvents(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 3)
	if _, err := sys.WriteFile("ints.txt", data); err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	if got := sys.Engine.Pending(); got != 0 {
		t.Fatalf("pending events survived ResetTimers: %d", got)
	}
	if sys.Engine.Fired() != 0 || sys.Engine.Clock().Now() != 0 {
		t.Fatalf("engine not rewound: fired=%d now=%v", sys.Engine.Fired(), sys.Engine.Clock().Now())
	}
}
