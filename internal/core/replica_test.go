package core

import (
	"crypto/sha256"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/serial"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// remoteFetcher routes replica re-fetches to a peer system's namespace —
// the minimal two-system version of what internal/array installs
// fleet-wide.
type remoteFetcher struct {
	peer  *System
	calls int
}

func (r *remoteFetcher) FetchReplica(ready units.Time, name string) ([]byte, units.Time, bool) {
	r.calls++
	f, err := r.peer.OpenFile(name)
	if err != nil {
		return nil, 0, false
	}
	data, done, err := r.peer.ReadRaw(ready, f)
	if err != nil {
		return nil, 0, false
	}
	return data, done, true
}

// TestReplicaFetcherRoutesRemote is the satellite regression for the
// degraded-mode single-system assumption: with a fetcher installed, a
// primary whose media lost the object must re-fetch from the system
// actually holding the copy — charging that system's driver and flash —
// and still serve byte-correct output.
func TestReplicaFetcherRoutesRemote(t *testing.T) {
	parserFactory := func() HostParser {
		p := serial.TokenParser{Kind: serial.FieldInt32}
		return func(chunk []byte, final bool) []byte { return p.Parse(chunk, final) }
	}
	primary := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	holder := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, vals := testInput(1<<12, 23)
	f, err := primary.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.WriteFile("ints", data); err != nil {
		t.Fatal(err)
	}
	primary.ResetTimers()
	holder.ResetTimers()
	rf := &remoteFetcher{peer: holder}
	primary.SetReplicaFetcher(rf)
	primary.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})

	inv, err := primary.InvokeStorageApp(0, InvokeOptions{
		App:      intApp(true),
		File:     f,
		Fallback: &Fallback{Parser: parserFactory},
	})
	if err != nil {
		t.Fatalf("degraded invocation failed outright: %v", err)
	}
	if inv.Path != PathReplicaFallback {
		t.Fatalf("served via %v, want %v", inv.Path, PathReplicaFallback)
	}
	if rf.calls != 1 {
		t.Errorf("fetcher called %d times, want 1", rf.calls)
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
	// The remote read must be charged to the holder: conventional READ
	// latency observed there, none on the (dead-media) primary's clock.
	if n := holder.Metrics.Histogram("nvme.READ.latency_ps").Count(); n == 0 {
		t.Error("holder served the replica but recorded no conventional READ latency")
	}
	if n := holder.Counters.Get(stats.NVMeCommands); n == 0 {
		t.Error("holder served the replica but completed no commands")
	}
	if primary.Counters.Get(stats.ReplicaFallbacks) != 1 {
		t.Errorf("primary ReplicaFallbacks = %d, want 1", primary.Counters.Get(stats.ReplicaFallbacks))
	}
	checkNoLeaks(t, primary)
	checkNoLeaks(t, holder)
}

// TestReplicaFetcherMissIsHardError: with a fetcher installed, routing is
// authoritative — a miss must fail the invoke rather than silently fall
// back to the primary's local staging copy (the pre-array behavior the
// fleet must not inherit).
func TestReplicaFetcherMissIsHardError(t *testing.T) {
	parserFactory := func() HostParser {
		p := serial.TokenParser{Kind: serial.FieldInt32}
		return func(chunk []byte, final bool) []byte { return p.Parse(chunk, final) }
	}
	primary := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	empty := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 29)
	f, err := primary.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	primary.ResetTimers()
	// The peer never staged "ints", so every fetch misses — even though
	// the primary still holds its own local replica copy.
	primary.SetReplicaFetcher(&remoteFetcher{peer: empty})
	primary.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})

	if _, err := primary.InvokeStorageApp(0, InvokeOptions{
		App:      intApp(true),
		File:     f,
		Fallback: &Fallback{Parser: parserFactory},
	}); err == nil {
		t.Fatal("fetcher miss served the request anyway (silent local fallback)")
	}
}

// TestReplicaRefetchLeavesStagedBufferIntact: WriteFile keeps the
// caller's buffer as the replica, so the degraded-mode re-fetch (local
// pages lost, no fetcher: the single-system E14 path) parses that very
// buffer. The runtime must hand the parser copies — here a parser that
// scribbles over every chunk it gets — and leave the staged bytes as
// they were.
func TestReplicaRefetchLeavesStagedBufferIntact(t *testing.T) {
	scribbler := func() HostParser {
		p := serial.TokenParser{Kind: serial.FieldInt32}
		return func(chunk []byte, final bool) []byte {
			out := p.Parse(chunk, final)
			for i := range chunk {
				chunk[i] = 'x'
			}
			return out
		}
	}
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	// Several MDTS chunks, ending mid-record, so the aligner carries.
	data, vals := testInput(1<<15, 31)
	data = data[:len(data)-3]
	vals = vals[:len(vals)-1]
	before := sha256.Sum256(data)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})
	inv, err := sys.InvokeStorageApp(0, InvokeOptions{
		App:      intApp(true),
		File:     f,
		Fallback: &Fallback{Parser: scribbler},
	})
	if err != nil {
		t.Fatalf("degraded invocation failed: %v", err)
	}
	if inv.Path != PathReplicaFallback {
		t.Fatalf("served via %v, want %v", inv.Path, PathReplicaFallback)
	}
	if sha256.Sum256(data) != before {
		t.Fatal("the replica re-fetch modified the caller's staged buffer")
	}
	got := serial.DecodeI32(inv.Out)
	if len(got) < len(vals) {
		t.Fatalf("decoded %d of %d values", len(got), len(vals))
	}
	for i := range vals {
		if int64(got[i]) != int64(int32(vals[i])) {
			t.Fatalf("value %d: got %d want %d", i, got[i], vals[i])
		}
	}
	checkNoLeaks(t, sys)
}
