package core

import (
	"errors"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/ftl"
	"morpheus/internal/nvme"
	"morpheus/internal/serial"
)

// TestMediaErrorSurfacesToHost drives both datapaths over media that fails
// every read uncorrectably and checks the error classification the tentpole
// promises: errors.Is works across package boundaries, from the flash array
// up through the FTL, the NVMe status, and the core sentinels — no string
// matching required.
func TestMediaErrorSurfacesToHost(t *testing.T) {
	t.Run("mread", func(t *testing.T) {
		sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
		data, _ := testInput(1<<13, 21)
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		// Every read fails uncorrectably from here on.
		sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})
		_, err = sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
		if err == nil {
			t.Fatal("MREAD over damaged media succeeded")
		}
		// The first attempt's unrecovered read must stay classifiable even
		// though the train replay then hit the retired (unmapped) block.
		for _, want := range []error{ErrMediaFailure, nvme.ErrMedia, ftl.ErrMediaError, flash.ErrUncorrectable} {
			if !errors.Is(err, want) {
				t.Errorf("errors.Is(err, %v) = false; err chain: %v", want, err)
			}
		}
		// The firmware retired the afflicted block.
		if sys.SSD.FTL.BadBlocks() == 0 {
			t.Fatal("media error must retire the block")
		}
	})
	t.Run("conventional", func(t *testing.T) {
		sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
		data, _ := testInput(1<<13, 21)
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})
		parser := serial.TokenParser{Kind: serial.FieldInt32}
		_, err = sys.DeserializeConventional(0, f,
			func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
			ParseSpec{}, 0, nil)
		if err == nil {
			t.Fatal("conventional read of damaged media succeeded")
		}
		if !errors.Is(err, ErrMediaFailure) {
			t.Errorf("errors.Is(err, ErrMediaFailure) = false; err chain: %v", err)
		}
		// The in-place READ retry hit the retired block's dangling LBAs.
		if !errors.Is(err, nvme.ErrLBAOutOfRange) {
			t.Errorf("errors.Is(err, nvme.ErrLBAOutOfRange) = false; err chain: %v", err)
		}
		if sys.SSD.FTL.BadBlocks() == 0 {
			t.Fatal("media error must retire the block")
		}
	})
}

func TestRareFaultsDoNotBreakRuns(t *testing.T) {
	// A realistic low rate of correctable errors changes timing, not
	// results.
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, vals := testInput(1<<14, 5)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	model := flash.DefaultFaultModel()
	model.CorrectablePerM = 200_000 // 20% of reads pay an ECC retry
	sys.SSD.Flash.SetFaultModel(model)
	inv, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
	if err != nil {
		t.Fatal(err)
	}
	got := serial.DecodeI32(inv.Out)
	if len(got) != len(vals) {
		t.Fatalf("decoded %d of %d values", len(got), len(vals))
	}
	c, u := sys.SSD.Flash.FaultStats()
	if c == 0 {
		t.Fatal("expected correctable faults to fire")
	}
	if u != 0 {
		t.Fatalf("unexpected uncorrectable faults: %d", u)
	}
}

// TestSimulationDeterminism: identical configuration and seed produce
// identical simulated times and identical data — the property every
// experiment in internal/exp relies on.
func TestSimulationDeterminism(t *testing.T) {
	run := func() (int64, int, string) {
		sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
		data, _ := testInput(1<<14, 33)
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		inv, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
		if err != nil {
			t.Fatal(err)
		}
		return int64(inv.Done), len(inv.Out), sys.Counters.String()
	}
	d1, n1, c1 := run()
	d2, n2, c2 := run()
	if d1 != d2 || n1 != n2 || c1 != c2 {
		t.Fatalf("two identical runs diverged: %d/%d bytes=%d/%d\ncounters A:\n%s\ncounters B:\n%s",
			d1, d2, n1, n2, c1, c2)
	}
}

// TestMalformedTokenPastSampleWindowFaults: a bad token the timing rig
// never sees (it lies past the sample window) must still surface as a
// StorageApp fault in sampled mode, as it does in exact mode: the native
// data plane's parse error makes the firmware reap the instance and fail
// the MREAD, with no panic and no slot or controller DRAM left behind.
func TestMalformedTokenPastSampleWindowFaults(t *testing.T) {
	var data []byte
	for i := int64(0); len(data) < 512<<10; i++ {
		data = serial.AppendIntText(data, i*7919%100003, " \n"[i%8/7])
	}
	data = append(data, "12 abc 34\n"...)
	for _, sampled := range []bool{false, true} {
		sys := newTestSystem(t, func(c *SystemConfig) {
			c.WithGPU = false
			c.SSD.SampledExecution = sampled
		})
		if w := int(sys.Cfg.SSD.SampleWindow); w >= len(data)-10 {
			t.Fatalf("sample window %d covers the bad token at %d", w, len(data)-10)
		}
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.InvokeStorageApp(0, InvokeOptions{App: intApp(sampled), File: f})
		if !errors.Is(err, ErrAppTrap) || !errors.Is(err, nvme.ErrAppTrap) {
			t.Fatalf("sampled=%v: err = %v, want a StorageApp trap", sampled, err)
		}
		if n, d := sys.SSD.Instances(), sys.SSD.PinnedDRAM(); n != 0 || d != 0 {
			t.Fatalf("sampled=%v: %d instances and %d bytes of controller DRAM left after the fault", sampled, n, d)
		}
	}
}
