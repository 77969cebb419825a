package core

import (
	"errors"
	"slices"
	"testing"

	"morpheus/internal/host"
	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/ssd"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

func TestDriverSubmitWaitRoundTrip(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 1)
	f, err := sys.WriteFile("f", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	var raw []byte
	ctx := &ssd.CmdContext{
		Cmd:  nvme.BuildRead(0, f.SLBA, f.NLB, 0x100000),
		Sink: func(p []byte) { raw = append(raw, p...) },
	}
	comp, done, err := sys.Driver.Submit(0, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("status %v", comp.Status)
	}
	if done <= 0 {
		t.Fatal("completion must take time")
	}
	if len(raw) < len(data) {
		t.Fatalf("read %d of %d bytes", len(raw), len(data))
	}
}

func TestWaitBatchSingleBlockingEpisode(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<14, 2)
	f, err := sys.WriteFile("f", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	var pending []Pending
	tNow := units.Time(0)
	for _, ch := range sys.chunksOf(f) {
		ctx := &ssd.CmdContext{Cmd: nvme.BuildRead(0, ch.slba, ch.nlb, 0x100000)}
		p, t2 := sys.Driver.SubmitAsync(tNow, ctx)
		tNow = t2
		pending = append(pending, p)
	}
	before := sys.Counters.Get(stats.CtxSwitches)
	n, end := sys.Driver.ReapWindow(tNow, pending, len(pending))
	if n != len(pending) {
		t.Fatalf("reaped = %d of %d", n, len(pending))
	}
	switches := sys.Counters.Get(stats.CtxSwitches) - before
	if switches > 2 {
		t.Fatalf("batch wait cost %d switches, want <= 2 (the Figure 10 amortization)", switches)
	}
	if end <= tNow {
		t.Fatal("wait must advance time")
	}
	// Waiting on an empty batch is a no-op.
	if _, e := sys.Driver.ReapWindow(end, nil, 0); e != end {
		t.Fatal("empty batch wait must not advance time")
	}
}

func TestDeserializeFromMediumMatchesConventional(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<15, 4)
	parser := serial.TokenParser{Kind: serial.FieldInt32}
	mk := func() HostParser {
		return func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) }
	}
	ram := host.NewRAMDrive(sys.Host)
	res, err := sys.DeserializeFromMedium(0, ram, data, mk(), ParseSpec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RawBytes != units.Bytes(len(data)) {
		t.Fatalf("raw = %v", res.RawBytes)
	}
	// Same objects as parsing in one shot.
	whole := parser.Parse(data, true)
	if len(res.Out) != len(whole) {
		t.Fatalf("medium parse %d bytes vs whole %d", len(res.Out), len(whole))
	}
	for i := range whole {
		if res.Out[i] != whole[i] {
			t.Fatal("medium-parsed objects differ")
		}
	}
}

func TestHDDSlowerThanRAMDrive(t *testing.T) {
	data, _ := testInput(1<<16, 4)
	parser := serial.TokenParser{Kind: serial.FieldInt32}
	mk := func() HostParser {
		return func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) }
	}
	sys1 := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	hdd, err := sys1.DeserializeFromMedium(0, host.NewHDD(sys1.Host), data, mk(), ParseSpec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys2 := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	ram, err := sys2.DeserializeFromMedium(0, host.NewRAMDrive(sys2.Host), data, mk(), ParseSpec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdd.Done <= ram.Done {
		t.Fatalf("HDD (%v) must be slower than the RAM drive (%v)", hdd.Done, ram.Done)
	}
}

func TestStrippedParseRatio(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<16, 9)
	end := sys.StrippedParse(0, data, ParseSpec{}, 0)
	pc := sys.Cfg.ParseCosts
	want := sys.Cfg.CPU.Freq.Cycles(pc.ConvertCyclesPerInputByte(0) * float64(len(data)))
	if units.Duration(end) != want {
		t.Fatalf("stripped parse = %v, want %v", end, want)
	}
}

func TestOpenFileAndDuplicates(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	if _, err := sys.WriteFile("a", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteFile("a", []byte("y\n")); err == nil {
		t.Fatal("duplicate file name must fail")
	}
	if _, err := sys.OpenFile("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenFile("missing"); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestInstanceIDsUnique(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		id := sys.NextInstanceID()
		if seen[id] {
			t.Fatalf("instance id %d reused", id)
		}
		seen[id] = true
	}
}

// TestDriverCIDs: the driver numbers commands itself. A batch larger than
// one doorbell can publish fails with nvme.ErrQueueFull and consumes no
// CID, so the next batch continues the sequence; and CIDs wrap from 65535
// to 0 and go on.
func TestDriverCIDs(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<12, 4)
	f, err := sys.WriteFile("f", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	d := sys.Driver
	reads := func(n int) []*ssd.CmdContext {
		ctxs := make([]*ssd.CmdContext, n)
		for i := range ctxs {
			ctxs[i] = &ssd.CmdContext{Cmd: nvme.BuildRead(0, f.SLBA, 1, 0x100000)}
		}
		return ctxs
	}
	cids := func(ps []Pending) []uint16 {
		var out []uint16
		for _, p := range ps {
			out = append(out, p.CID)
		}
		return out
	}
	submit := func(n int) []uint16 {
		t.Helper()
		ps, end, err := d.SubmitBatch(0, reads(n))
		if err != nil {
			t.Fatalf("SubmitBatch of %d: %v", n, err)
		}
		d.ReapWindow(end, ps, len(ps))
		return cids(ps)
	}

	t.Run("full batch uses no CID", func(t *testing.T) {
		first := submit(2)
		fired := sys.Engine.Fired()
		ps, end, err := d.SubmitBatch(0, reads(queueDepth))
		if !errors.Is(err, nvme.ErrQueueFull) || ps != nil || end != 0 {
			t.Fatalf("SubmitBatch of %d: pendings %d, end %v, err %v; want ErrQueueFull and nothing issued",
				queueDepth, len(ps), end, err)
		}
		if got := sys.Engine.Fired(); got != fired {
			t.Fatalf("rejected batch delivered %d completions", got-fired)
		}
		next := submit(3)
		want := []uint16{first[1] + 1, first[1] + 2, first[1] + 3}
		if !slices.Equal(next, want) {
			t.Fatalf("CIDs after the rejected batch = %v, want %v", next, want)
		}
		// The largest batch one doorbell can publish still goes through.
		if got := submit(queueDepth - 1); len(got) != queueDepth-1 {
			t.Fatalf("batch of %d issued %d commands", queueDepth-1, len(got))
		}
	})

	t.Run("wrap", func(t *testing.T) {
		d.nextCID = 65533
		if got, want := submit(4), []uint16{65534, 65535, 0, 1}; !slices.Equal(got, want) {
			t.Fatalf("CIDs across the wrap = %v, want %v", got, want)
		}
	})
}
