package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/nvme"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

// TestSubmitBatchCoalescesDoorbells drives the driver's batch path
// directly: N conventional READs published by one doorbell must ring
// once, attribute N SQEs to it, and cost less host CPU per command than
// N command-at-a-time submissions.
func TestSubmitBatchCoalescesDoorbells(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 3)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()

	const n = 8
	dst, t0, err := sys.Host.AllocDMA(0, n*nvme.LBASize)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Host.FreeDMA(dst)
	ctxs := make([]*ssd.CmdContext, n)
	for i := range ctxs {
		ctxs[i] = &ssd.CmdContext{
			Cmd: nvme.BuildRead(0, f.SLBA+uint64(i), 1, uint64(dst)+uint64(i)*nvme.LBASize),
		}
	}
	ps, t1, err := sys.Driver.SubmitBatch(t0, ctxs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Driver.ReapWindow(t1, ps, len(ps))
	for i, p := range ps {
		if serr := p.Comp.Status.Err(); serr != nil {
			t.Fatalf("READ %d failed: %v", i, serr)
		}
	}
	if got := sys.Counters.Get(stats.HostDoorbells); got != 1 {
		t.Errorf("doorbells = %d, want 1", got)
	}
	if got := sys.Counters.Get(stats.HostSQEs); got != n {
		t.Errorf("sqes = %d, want %d", got, n)
	}
	h := sys.Metrics.Histogram(stats.HostSubmitOverhead)
	if h.Count() != n {
		t.Fatalf("overhead observations = %d, want %d", h.Count(), n)
	}
	batched := h.Mean()

	// The same commands, command-at-a-time, on a fresh system.
	sys2 := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	if _, err := sys2.WriteFile("ints", data); err != nil {
		t.Fatal(err)
	}
	sys2.ResetTimers()
	dst2, t0, err := sys2.Host.AllocDMA(0, n*nvme.LBASize)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Host.FreeDMA(dst2)
	tt := t0
	var pend []Pending
	for i := 0; i < n; i++ {
		p, t2 := sys2.Driver.SubmitAsync(tt, &ssd.CmdContext{
			Cmd: nvme.BuildRead(0, f.SLBA+uint64(i), 1, uint64(dst2)+uint64(i)*nvme.LBASize),
		})
		tt = t2
		pend = append(pend, p)
	}
	sys2.Driver.ReapWindow(tt, pend, len(pend))
	if got := sys2.Counters.Get(stats.HostDoorbells); got != n {
		t.Errorf("command-at-a-time doorbells = %d, want %d", got, n)
	}
	single := sys2.Metrics.Histogram(stats.HostSubmitOverhead).Mean()
	if batched >= single {
		t.Errorf("batched submit overhead %.0f ps/cmd not below command-at-a-time %.0f ps/cmd", batched, single)
	}
}

// invokeAtDepths runs one InvokeStorageApp over the same staged data at
// the given (batch, window) and returns the result and the system.
func invokeAtDepths(t *testing.T, data []byte, batch, window int, sampled bool) (*InvokeResult, *System) {
	t.Helper()
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 32 * units.KiB // many chunks per train at test scale
		c.BatchDepth = batch
		c.WindowDepth = window
	})
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	res, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(sampled), File: f})
	if err != nil {
		t.Fatal(err)
	}
	return res, sys
}

// TestWindowedTrainByteIdentical: the served object stream and command
// count must not depend on how submission is batched or how deep the
// in-flight window is.
func TestWindowedTrainByteIdentical(t *testing.T) {
	data, _ := testInput(1<<15, 11)
	ref, _ := invokeAtDepths(t, data, 1, 1, true)
	for _, d := range []struct{ batch, window int }{
		{1, 8}, {4, 4}, {8, 16}, {32, 64}, {0, 0}, {64, 1},
	} {
		res, sys := invokeAtDepths(t, data, d.batch, d.window, true)
		if !bytes.Equal(ref.Out, res.Out) {
			t.Errorf("depths (%d,%d): output differs from command-at-a-time (%d vs %d bytes)",
				d.batch, d.window, len(res.Out), len(ref.Out))
		}
		if res.Commands != ref.Commands {
			t.Errorf("depths (%d,%d): %d commands, want %d", d.batch, d.window, res.Commands, ref.Commands)
		}
		// Nothing left in flight after a clean train.
		if got := sys.Driver.inflight; got != 0 {
			t.Errorf("depths (%d,%d): %d commands still in flight", d.batch, d.window, got)
		}
	}
}

// TestBatchedTrainReducesSubmitOverhead is the acceptance property: at
// batch depth >= 8 the per-command host submission overhead measured by
// host.submit.overhead_ps must drop below command-at-a-time.
func TestBatchedTrainReducesSubmitOverhead(t *testing.T) {
	data, _ := testInput(1<<15, 13)
	_, one := invokeAtDepths(t, data, 1, 1, true)
	_, eight := invokeAtDepths(t, data, 8, 16, true)
	single := one.Metrics.Histogram(stats.HostSubmitOverhead).Mean()
	batched := eight.Metrics.Histogram(stats.HostSubmitOverhead).Mean()
	if single <= 0 || batched <= 0 {
		t.Fatalf("overhead histograms empty: single=%v batched=%v", single, batched)
	}
	if batched >= single {
		t.Errorf("depth-8 submit overhead %.0f ps/cmd not below depth-1 %.0f ps/cmd", batched, single)
	}
	if d1, d8 := one.Counters.Get(stats.HostDoorbells), eight.Counters.Get(stats.HostDoorbells); d8 >= d1 {
		t.Errorf("depth-8 rang %d doorbells, depth-1 rang %d: no coalescing", d8, d1)
	}
}

// TestBatchFlushCountsAllTimeouts: when a whole reaped batch blew its
// deadline, every expired command must count into stats.CmdTimeouts —
// not just the first one the error return happens to surface.
func TestBatchFlushCountsAllTimeouts(t *testing.T) {
	data, _ := testInput(1<<15, 17)
	mutate := func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 32 * units.KiB
	}

	// Reference run: find the device-side latency band of the train's
	// MREADs and of the MINIT, so the deadline can be pinned between them.
	ref := newTestSystem(t, mutate)
	f, err := ref.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	ref.ResetTimers()
	res, err := ref.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
	if err != nil {
		t.Fatal(err)
	}
	nchunks := res.Commands - 2 // minus MINIT and MDEINIT
	if nchunks < 4 {
		t.Fatalf("train too short for the test: %d chunks", nchunks)
	}
	minMRead := ref.Metrics.Histogram("nvme.MREAD.latency_ps").Min()
	maxMInit := ref.Metrics.Histogram("nvme.MINIT.latency_ps").Max()
	if maxMInit >= minMRead {
		t.Fatalf("cannot pin a deadline between MINIT (%d ps) and MREAD (%d ps)", maxMInit, minMRead)
	}

	// Measured run: same data, deadline that every MREAD (and no MINIT)
	// exceeds, one attempt so the train fails exactly once.
	sys := newTestSystem(t, mutate)
	if _, err := sys.WriteFile("ints", data); err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	_, err = sys.InvokeStorageApp(0, InvokeOptions{
		App: intApp(true), File: f,
		Retry: &RetryPolicy{MaxAttempts: 1, Deadline: units.Duration(minMRead - 1)},
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if got := sys.Counters.Get(stats.CmdTimeouts); got != int64(nchunks) {
		t.Errorf("CmdTimeouts = %d, want %d (one per expired MREAD)", got, nchunks)
	}
	if got := sys.Driver.inflight; got != 0 {
		t.Errorf("failed train left %d commands in flight", got)
	}
}

// TestFailedBatchMReadFlaggedForSampler: a batched MREAD train that fails
// with a device status error must be flagged for the tail sampler, so a
// sampled trace keeps the failed command's tree (the bug: the batch path
// flagged only timeouts, making failed-status trains invisible).
func TestFailedBatchMReadFlaggedForSampler(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 32 * units.KiB
	})
	data, _ := testInput(1<<15, 19)
	f, err := sys.WriteFile("ints", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	tr := sys.EnableTrace(0)
	// Keep only a 1-event head: nothing else survives unless flagged.
	tr.SetSamplePolicy(trace.SamplePolicy{Head: 1})
	sys.SSD.Flash.SetFaultModel(flash.FaultModel{UncorrectablePerM: 1_000_000})
	_, err = sys.InvokeStorageApp(0, InvokeOptions{
		App: intApp(true), File: f,
		Retry: &RetryPolicy{MaxAttempts: 1},
	})
	if err == nil {
		t.Fatal("MREAD train over damaged media succeeded")
	}
	if !errors.Is(err, nvme.ErrMedia) {
		t.Fatalf("err = %v, want a media status error", err)
	}
	var kept bool
	for _, e := range tr.Events() {
		if e.Track.String() == "host" && e.Name.String() == "submit" && strings.Contains(e.Detail.String(), "op=MREAD") {
			kept = true
		}
	}
	if !kept {
		t.Errorf("sampled trace kept no failed MREAD submit span (%d events kept of %d recorded)",
			tr.Kept(), tr.Recorded())
	}
	// Non-vacuity: the policy must have held something back, so the MREAD
	// tree survived because it was flagged, not because everything is kept.
	if tr.Kept() >= tr.Recorded() {
		t.Errorf("sampler kept all %d recorded events; the keep assertion is vacuous", tr.Recorded())
	}
}

// TestDeadlineUsesDeviceCompletion: the retry path must check the
// per-command deadline against device completion time, not against the
// host clock after reap work — host-side context switches and reap cycles
// must not tip a command over its deadline.
func TestDeadlineUsesDeviceCompletion(t *testing.T) {
	data, _ := testInput(1<<12, 23)
	build := func() (*System, *File) {
		sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
		f, err := sys.WriteFile("ints", data)
		if err != nil {
			t.Fatal(err)
		}
		sys.ResetTimers()
		return sys, f
	}

	// Measure one READ's device latency and host-observed latency.
	sys, f := build()
	dst, t0, err := sys.Host.AllocDMA(0, nvme.LBASize)
	if err != nil {
		t.Fatal(err)
	}
	mkRead := func(addr uint64) *ssd.CmdContext {
		return &ssd.CmdContext{Cmd: nvme.BuildRead(0, f.SLBA, 1, addr)}
	}
	pend, t1 := sys.Driver.SubmitAsync(t0, mkRead(uint64(dst)))
	_, t2 := sys.Driver.Wait(t1, pend)
	devLat := pend.Done.Sub(pend.Submitted)
	hostLat := t2.Sub(pend.Submitted)
	if hostLat <= devLat {
		t.Fatalf("host-observed latency %v not beyond device latency %v; boundary test is vacuous", hostLat, devLat)
	}

	// Fresh identical system: a deadline of exactly the device latency
	// must pass (expired is strictly-greater), even though the host
	// observes the completion later than that.
	sys2, f2 := build()
	dst2, t0, err := sys2.Host.AllocDMA(0, nvme.LBASize)
	if err != nil {
		t.Fatal(err)
	}
	_ = f2
	comp, _, err := sys2.Driver.SubmitRetry(t0, &sys2.metrics.readRetry,
		RetryPolicy{MaxAttempts: 1, Deadline: devLat}, func() *ssd.CmdContext { return mkRead(uint64(dst2)) })
	if err != nil {
		t.Fatalf("READ with deadline == device latency failed: %v", err)
	}
	if serr := comp.Status.Err(); serr != nil {
		t.Fatal(serr)
	}
	if got := sys2.Counters.Get(stats.CmdTimeouts); got != 0 {
		t.Errorf("CmdTimeouts = %d, want 0", got)
	}

	// And one picosecond under the device latency must expire.
	sys3, _ := build()
	dst3, t0, err := sys3.Host.AllocDMA(0, nvme.LBASize)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sys3.Driver.SubmitRetry(t0, &sys3.metrics.readRetry,
		RetryPolicy{MaxAttempts: 1, Deadline: devLat - 1}, func() *ssd.CmdContext { return mkRead(uint64(dst3)) })
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if got := sys3.Counters.Get(stats.CmdTimeouts); got != 1 {
		t.Errorf("CmdTimeouts = %d, want 1", got)
	}
}

// TestMReadDestReservationBounds: the train reserves MDTS*2 of the dest
// DMA region per chunk against a 2*File.Size allocation. For every file
// size — MDTS multiples, off-by-one and off-by-an-LBA around them — each
// chunk's worst-case output (2x its valid bytes) must land inside the
// allocation.
func TestMReadDestReservationBounds(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 32 * units.KiB
	})
	mdts := int64(sys.Cfg.SSD.MDTS)
	sizes := []int64{
		1, nvme.LBASize - 1, nvme.LBASize, nvme.LBASize + 1,
		mdts - 1, mdts, mdts + 1,
		4*mdts - nvme.LBASize, 4 * mdts, 4*mdts + nvme.LBASize, 4*mdts + 1,
		64*mdts - 1, 64 * mdts,
	}
	for _, size := range sizes {
		f := &File{
			Name: "probe", Size: units.Bytes(size), SLBA: 0,
			NLB: uint32((size + nvme.LBASize - 1) / nvme.LBASize),
		}
		alloc := 2 * size // the dest buffer invokeMorpheusOnce allocates
		var dstAddr, offset int64
		for i, ch := range sys.chunksOf(f) {
			chunkBytes := int64(ch.nlb) * nvme.LBASize
			valid := size - offset
			if valid > chunkBytes {
				valid = chunkBytes
			}
			offset += chunkBytes
			if valid <= 0 {
				t.Errorf("size %d: chunk %d has %d valid bytes", size, i, valid)
			}
			if end := dstAddr + 2*valid; end > alloc {
				t.Errorf("size %d: chunk %d writes up to %d past the %d-byte dest region", size, i, end, alloc)
			}
			dstAddr += mdts * 2
		}
		if offset < size {
			t.Errorf("size %d: chunks cover only %d bytes", size, offset)
		}
	}

	// End to end at an awkward size: a non-LBA-aligned file one byte past
	// an MDTS multiple must still serve through the batched train.
	data, _ := testInput(1<<14, 31)
	data = data[:4*mdts+1]
	f, err := sys.WriteFile("odd", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	res, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) == 0 {
		t.Fatal("odd-size file served no bytes")
	}
}
