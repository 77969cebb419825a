package core

import (
	"bytes"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// intoPath is one serving path: how a fresh system is set up so that it
// serves the input that way, and the path and device-path attempts the
// invocation must report.
type intoPath struct {
	name     string
	path     ServePath
	mutate   func(*SystemConfig)
	faults   flash.FaultModel
	attempts int
}

func (p intoPath) stage(t *testing.T, data []byte) (*System, *File) {
	t.Helper()
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 8 * units.KiB
		c.SSD.ObjectCache = false
		if p.mutate != nil {
			p.mutate(c)
		}
	})
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	sys.SSD.Flash.SetFaultModel(p.faults)
	return sys, f
}

func (p intoPath) invoke(t *testing.T, data, into []byte) *InvokeResult {
	t.Helper()
	sys, f := p.stage(t, data)
	inv, err := sys.InvokeStorageApp(0, InvokeOptions{
		App:      intApp(true),
		File:     f,
		Fallback: &Fallback{Parser: func() HostParser { return reusingParser(serial.FieldInt32) }},
		Into:     into,
	})
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	if inv.Path != p.path || inv.Attempts != p.attempts {
		t.Fatalf("%s: served via %v after %d attempts, want %v after %d", p.name, inv.Path, inv.Attempts, p.path, p.attempts)
	}
	return inv
}

// replayedTrain finds a fault seed under which the first MREAD train
// blows its deadline on an ECC read-retry and the replay serves cleanly:
// correctable errors are keyed on the read sequence, so a replay reads
// different luck.
func replayedTrain(t *testing.T, data []byte) intoPath {
	t.Helper()
	p := intoPath{name: "replayed-train", path: PathMorpheus, attempts: 2}
	for seed := uint64(1); seed <= 64; seed++ {
		p.faults = flash.FaultModel{CorrectablePerM: 150_000, RetryPenalty: 200 * units.Millisecond, Seed: seed}
		sys, f := p.stage(t, data)
		inv, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
		if err == nil && inv.Attempts == 2 {
			return p
		}
	}
	t.Fatal("no fault seed in 1..64 fails the first train once and serves the replay")
	return p
}

// TestInvokeIntoMatchesFresh is the differential test for InvokeOptions.Into:
// on every serving path, and for every shape of Into, Out holds exactly
// the bytes a nil Into yields, and it lands in Into whenever Into has
// room. The replayed train starts from Into[:0] again, so the failed
// attempt's bytes cannot survive in Out.
func TestInvokeIntoMatchesFresh(t *testing.T) {
	data, _ := testInput(1<<13, 41)
	paths := []intoPath{
		{name: "morpheus", path: PathMorpheus, attempts: 1},
		{name: "host-fallback", path: PathHostFallback, mutate: func(c *SystemConfig) { c.SSD.MorpheusSupported = false }},
		{name: "replica", path: PathReplicaFallback, faults: flash.FaultModel{UncorrectablePerM: 1_000_000}, attempts: 2},
		replayedTrain(t, data),
	}
	cases := []struct {
		name string
		into func(n int) []byte
	}{
		{"nil", func(int) []byte { return nil }},
		{"empty", func(int) []byte { return []byte{} }},
		{"short", func(n int) []byte { return make([]byte, n/2) }},
		{"exact", func(n int) []byte { return make([]byte, 0, n) }},
		{"oversized", func(n int) []byte { return bytes.Repeat([]byte{0xFF}, 2*n) }},
	}
	var first []byte
	for _, p := range paths {
		want := p.invoke(t, data, nil).Out
		if first == nil {
			first = want
		}
		if len(want) == 0 || !bytes.Equal(want, first) {
			t.Fatalf("%s: %d object bytes that differ from the %s path's", p.name, len(want), paths[0].name)
		}
		for _, c := range cases {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				into := c.into(len(want))
				got := p.invoke(t, data, into).Out
				if !bytes.Equal(got, want) {
					t.Fatalf("Out differs from the nil-Into result (%d vs %d bytes)", len(got), len(want))
				}
				shares := cap(into) > 0 && &into[:1][0] == &got[0]
				if fits := cap(into) >= len(want); shares != fits {
					t.Errorf("cap(Into) = %d for %d bytes: Out shares Into's array = %v, want %v", cap(into), len(want), shares, fits)
				}
			})
		}
	}
}
