package core

import (
	"fmt"
	"testing"

	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
)

// TestOneEngineEventPerCommand: the driver delivers exactly one
// completion per NVMe command, on the Morpheus and the conventional path
// alike, and the queue depth is back to zero once the host has reaped
// every command. Each path reads a large file and then a small one, both
// from time zero, as the threads of a multi-threaded app do. ResetTimers
// zeroes the delivery count.
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
			t.Fatalf("driver delivered %d completions for %d NVMe commands, want one per command", fired, cmds)
		}
		if n := sys.Driver.inflight; n != 0 {
			t.Fatalf("%d commands still in flight after the host reaped every command", n)
		}
		sys.ResetTimers()
		if fired := sys.Engine.Fired(); fired != 0 {
			t.Fatalf("Fired() = %d after ResetTimers, want 0", fired)
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
// boundary; a command a setup phase submitted and never reaped must not
// leak into the measured run. Its completion was delivered at submission,
// so the delivery count and in-flight depth start again from zero.
func TestEngineResetCoversPendingEvents(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 3)
	f, err := sys.WriteFile("ints.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := sys.Host.AllocDMA(0, f.Size)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &ssd.CmdContext{Cmd: nvme.BuildRead(0, f.SLBA, f.NLB, uint64(addr))}
	sys.Driver.SubmitAsync(0, ctx)
	if sys.Engine.Fired() == 0 || sys.Driver.inflight != 1 {
		t.Fatalf("setup command not outstanding: fired=%d inflight=%d", sys.Engine.Fired(), sys.Driver.inflight)
	}
	sys.ResetTimers()
	if sys.Engine.Fired() != 0 || sys.Driver.inflight != 0 {
		t.Fatalf("engine not rewound: fired=%d inflight=%d", sys.Engine.Fired(), sys.Driver.inflight)
	}
}
