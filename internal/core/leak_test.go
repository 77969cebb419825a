package core

import (
	"errors"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// trapSrc divides by an input value, so a 0 in the stream traps the MVM
// mid-train — the firmware must reap the instance itself.
const trapSrc = `
StorageApp int trapapplet(ms_stream s) {
	int v;
	int acc = 0;
	while (ms_scanf(s, "%d", &v) == 1) {
		acc += 1000 / v;
	}
	return acc;
}
`

// checkNoLeaks asserts the failure left no execution slot occupied, no
// controller DRAM reserved, and no host DMA buffer pinned.
func checkNoLeaks(t *testing.T, sys *System) {
	t.Helper()
	if n := sys.SSD.Instances(); n != 0 {
		t.Errorf("leaked %d execution slots", n)
	}
	if b := sys.SSD.PinnedDRAM(); b != 0 {
		t.Errorf("leaked %v of controller DRAM", b)
	}
	if n := sys.Host.PinnedDMA(); n != 0 {
		t.Errorf("leaked %d pinned host DMA buffers (%v)", n, sys.Host.PinnedDMABytes())
	}
}

// TestFailedInvocationsLeakNothing runs InvokeStorageApp through every
// firmware failure mode the tentpole hardens — MINIT rejected, MREAD media
// error, MVM trap, per-command deadline — and checks that each surfaces the
// right typed sentinel and releases every resource it acquired.
func TestFailedInvocationsLeakNothing(t *testing.T) {
	stage := func(t *testing.T, mutate func(*SystemConfig)) (*System, *File) {
		t.Helper()
		sys := newTestSystem(t, func(c *SystemConfig) {
			c.WithGPU = false
			if mutate != nil {
				mutate(c)
			}
		})
		data, _ := testInput(1<<12, 9)
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		return sys, f
	}

	t.Run("minit-rejected", func(t *testing.T) {
		// Code image cannot fit a 64-byte ISRAM: MINIT must be refused
		// before any slot or buffer is committed.
		sys, f := stage(t, func(c *SystemConfig) { c.SSD.ISRAMSize = 64 })
		_, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
		if !errors.Is(err, nvme.ErrSRAMOverflow) {
			t.Fatalf("want ErrSRAMOverflow, got: %v", err)
		}
		checkNoLeaks(t, sys)
	})

	t.Run("minit-no-slots", func(t *testing.T) {
		// Occupy the only execution slot by hand; the invocation's MINIT
		// sees StatusNoSlots, retries (slots could free), then gives up.
		sys, f := stage(t, func(c *SystemConfig) { c.SSD.MaxInstances = 1 })
		image, err := intApp(false).Image()
		if err != nil {
			t.Fatal(err)
		}
		addr, tAlloc, err := sys.Host.AllocDMA(0, units.Bytes(len(image)))
		if err != nil {
			t.Fatal(err)
		}
		_, tHeld, err := sys.Driver.Submit(tAlloc, &ssd.CmdContext{
			Cmd:  nvme.BuildMInit(0, uint64(addr), uint32(len(image)), 999, 0, 0),
			Code: image,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.InvokeStorageApp(tHeld, InvokeOptions{App: intApp(true), File: f})
		if !errors.Is(err, nvme.ErrNoSlots) {
			t.Fatalf("want ErrNoSlots, got: %v", err)
		}
		if sys.Counters.Get(stats.CmdRetries) == 0 {
			t.Error("a retryable NoSlots rejection must count retries")
		}
		// Only the hand-held instance and its code buffer may remain.
		if n := sys.SSD.Instances(); n != 1 {
			t.Fatalf("want exactly the hand-held instance, have %d", n)
		}
		if _, _, err := sys.Driver.Submit(tHeld, &ssd.CmdContext{Cmd: nvme.BuildMDeinit(0, 999)}); err != nil {
			t.Fatal(err)
		}
		sys.Host.FreeDMA(addr)
		checkNoLeaks(t, sys)
	})

	t.Run("mread-media-error", func(t *testing.T) {
		sys, f := stage(t, nil)
		sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})
		_, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
		if !errors.Is(err, ErrMediaFailure) {
			t.Fatalf("want ErrMediaFailure, got: %v", err)
		}
		checkNoLeaks(t, sys)
	})

	t.Run("mvm-trap", func(t *testing.T) {
		sys := newTestSystem(t, func(c *SystemConfig) {
			c.WithGPU = false
			c.SSD.SampledExecution = false // interpret the whole stream
		})
		f, err := sys.WriteFile("trap", []byte("8 4 0 2\n"))
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		app := &StorageApp{Name: "trapapplet", Source: trapSrc}
		_, err = sys.InvokeStorageApp(0, InvokeOptions{App: app, File: f})
		if !errors.Is(err, ErrAppTrap) {
			t.Fatalf("want core.ErrAppTrap, got: %v", err)
		}
		if !errors.Is(err, nvme.ErrAppTrap) {
			t.Fatalf("want nvme.ErrAppTrap in the chain, got: %v", err)
		}
		checkNoLeaks(t, sys)
	})

	t.Run("deadline", func(t *testing.T) {
		sys, f := stage(t, nil)
		rp := DefaultRetryPolicy()
		rp.MaxAttempts = 2
		rp.Backoff = units.Microsecond
		rp.Deadline = units.Nanosecond // nothing completes this fast
		_, err := sys.invoke(0, InvokeOptions{App: intApp(true), File: f}, rp)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("want ErrDeadline, got: %v", err)
		}
		if sys.Counters.Get(stats.CmdTimeouts) == 0 {
			t.Error("deadline overruns must count timeouts")
		}
		checkNoLeaks(t, sys)
	})
}

// TestFallbackServesDespiteFailure checks the two-stage degraded mode at
// the core level: a stock controller serves through the host path, and a
// device whose media lost the pages serves through the replica — both
// byte-correct and leak-free.
func TestFallbackServesDespiteFailure(t *testing.T) {
	parserFactory := func() HostParser {
		p := serial.TokenParser{Kind: serial.FieldInt32}
		return func(chunk []byte, final bool) []byte { return p.Parse(chunk, final) }
	}
	run := func(t *testing.T, mutate func(*SystemConfig), damage bool) (*System, *InvokeResult) {
		t.Helper()
		sys := newTestSystem(t, func(c *SystemConfig) {
			c.WithGPU = false
			if mutate != nil {
				mutate(c)
			}
		})
		data, vals := testInput(1<<12, 17)
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		if damage {
			sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})
		}
		inv, err := sys.InvokeStorageApp(0, InvokeOptions{
			App:      intApp(true),
			File:     f,
			Fallback: &Fallback{Parser: parserFactory},
		})
		if err != nil {
			t.Fatalf("degraded invocation failed outright: %v", err)
		}
		got := serial.DecodeI32(inv.Out)
		if len(got) != len(vals) {
			t.Fatalf("decoded %d of %d values", len(got), len(vals))
		}
		for i := range got {
			if int64(got[i]) != int64(int32(vals[i])) {
				t.Fatalf("value %d: got %d want %d", i, got[i], vals[i])
			}
		}
		checkNoLeaks(t, sys)
		return sys, inv
	}

	t.Run("no-morpheus-host-path", func(t *testing.T) {
		sys, inv := run(t, func(c *SystemConfig) { c.SSD.MorpheusSupported = false }, false)
		if inv.Path != PathHostFallback {
			t.Fatalf("served via %v, want %v", inv.Path, PathHostFallback)
		}
		if inv.Attempts != 0 {
			t.Errorf("device path attempted %d times without Morpheus support", inv.Attempts)
		}
		if sys.Counters.Get(stats.HostFallbacks) != 1 {
			t.Errorf("HostFallbacks = %d, want 1", sys.Counters.Get(stats.HostFallbacks))
		}
	})

	t.Run("media-loss-replica-path", func(t *testing.T) {
		sys, inv := run(t, nil, true)
		if inv.Path != PathReplicaFallback {
			t.Fatalf("served via %v, want %v", inv.Path, PathReplicaFallback)
		}
		if inv.Attempts == 0 {
			t.Error("device path should have been attempted before falling back")
		}
		if sys.Counters.Get(stats.ReplicaFallbacks) != 1 {
			t.Errorf("ReplicaFallbacks = %d, want 1", sys.Counters.Get(stats.ReplicaFallbacks))
		}
	})
}
