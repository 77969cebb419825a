package ssd

import (
	"bytes"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/morphc"
	"morpheus/internal/mvm"
	"morpheus/internal/nvme"
	"morpheus/internal/pcie"
	"morpheus/internal/serial"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = flash.Geometry{
		Channels: 4, DiesPerChannel: 1, PlanesPerDie: 2,
		BlocksPerPlane: 32, PagesPerBlock: 32, PageSize: 16 * units.KiB,
	}
	return cfg
}

// testFabric builds a minimal PCIe fabric with a 256 MiB host-DRAM window
// at address 0 (covering the SQE/CQE ring addresses the controller touches
// and every buffer the tests DMA to), so tests can aim PRPs at mapped and
// unmapped addresses.
func testFabric(reg *stats.Registry) *pcie.Fabric {
	f := pcie.NewFabric(reg, "host")
	f.Attach("host", pcie.Gen3x4, 300*units.Nanosecond)
	if _, err := f.MapWindow(pcie.Window{
		Name: "host-dram", Base: 0, Size: 256 << 20, Endpoint: "host", Sink: pcie.NullSink,
	}); err != nil {
		panic(err)
	}
	return f
}

// unmappedAddr lies outside every window testFabric maps.
const unmappedAddr = 0x4000_0000

func newController(t *testing.T, mutate func(*Config)) *Controller {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	reg := stats.NewRegistry()
	c, err := New(cfg, reg, testFabric(reg))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const intAppSrc = `
StorageApp int app(ms_stream s) {
	int v;
	int n = 0;
	while (ms_scanf(s, "%d", &v) == 1) { ms_emit_i32(v); n++; }
	ms_memcpy();
	return n;
}
`

func compile(t testing.TB, src string) []byte {
	t.Helper()
	prog, err := morphc.Compile(src, "")
	if err != nil {
		t.Fatal(err)
	}
	img, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestConventionalWriteReadRoundTrip(t *testing.T) {
	c := newController(t, nil)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB
	wctx := &CmdContext{
		Cmd:  nvme.BuildWrite(0, 0, uint32(len(payload)/nvme.LBASize), 0),
		Data: payload,
	}
	comp, _ := c.Submit(0, wctx)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("write status %v", comp.Status)
	}
	var got []byte
	rctx := &CmdContext{
		Cmd:  nvme.BuildRead(0, 0, uint32(len(payload)/nvme.LBASize), 0),
		Sink: func(p []byte) { got = append(got, p...) },
	}
	comp, done := c.Submit(0, rctx)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("read status %v", comp.Status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, mismatch", len(got))
	}
	if done <= 0 {
		t.Fatal("read must take simulated time")
	}
}

// TestWriteUnalignedMergesPartialPages pins WRITE's page read-modify-write
// against a byte model of the namespace: the partial first and last pages
// keep their old bytes outside [slba, slba+nlb), a payload shorter than
// nlb LBAs is zero-padded, a longer one is cut at nlb LBAs, and a partial
// page with no old content merges with zeros.
func TestWriteUnalignedMergesPartialPages(t *testing.T) {
	c := newController(t, nil)
	lpp := int(c.lbasPerPage())
	const pages = 6
	model := make([]byte, pages*int(c.pageSize))
	write := func(slba, nlb int, data []byte) {
		t.Helper()
		comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildWrite(0, uint64(slba), uint32(nlb), 0), Data: data})
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("write slba=%d nlb=%d: status %v", slba, nlb, comp.Status)
		}
		dst := model[slba*nvme.LBASize : (slba+nlb)*nvme.LBASize]
		clear(dst)
		copy(dst, data)
	}
	pattern := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7+i/nvme.LBASize)
		}
		return b
	}
	// Pages 0-3 fully written, then overwritten from the middle of page 0
	// to the middle of page 3 with a payload that stops inside page 2.
	write(0, 4*lpp, pattern(4*lpp*nvme.LBASize, 1))
	write(1, 3*lpp+1, pattern(2*lpp*nvme.LBASize+nvme.LBASize/2+3, 100))
	// An oversized payload into the middle of page 3: only nlb LBAs land.
	write(3*lpp+1, 2, pattern(5*nvme.LBASize, 200))
	// Pages 4-5 were never written: the partial first page merges with
	// zeros, and a short payload pads the rest of the range with zeros.
	write(4*lpp+2, lpp, pattern(nvme.LBASize+11, 50))

	var got []byte
	comp, _ := c.Submit(0, &CmdContext{
		Cmd:  nvme.BuildRead(0, 0, uint32(pages*lpp), 0),
		Sink: func(p []byte) { got = append(got, p...) },
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("read status %v", comp.Status)
	}
	if len(got) != len(model) {
		t.Fatalf("read %d bytes, want %d", len(got), len(model))
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("byte %d (LBA %d): got %#x, want %#x", i, i/nvme.LBASize, got[i], model[i])
		}
	}
}

func TestReadUnmappedLBAFails(t *testing.T) {
	c := newController(t, nil)
	ctx := &CmdContext{Cmd: nvme.BuildRead(0, 999999, 1, 0)}
	comp, _ := c.Submit(0, ctx)
	if comp.Status == nvme.StatusSuccess {
		t.Fatal("read of unmapped LBA must fail")
	}
}

func TestMorpheusLifecycle(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.SampledExecution = false })
	input := []byte("11 22 33 44\n55 66\n")
	slba, nlb, err := c.LoadFile(0, input)
	if err != nil {
		t.Fatal(err)
	}
	img := compile(t, intAppSrc)
	comp, _ := c.Submit(0, &CmdContext{
		Cmd:  nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0),
		Code: img,
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MINIT status %v", comp.Status)
	}
	if c.Instances() != 1 {
		t.Fatalf("instances = %d", c.Instances())
	}
	var out []byte
	comp, _ = c.Submit(0, &CmdContext{
		Cmd:        nvme.BuildMRead(0, slba, nlb, 1, 0),
		Sink:       func(p []byte) { out = append(out, p...) },
		LastChunk:  true,
		ValidBytes: len(input),
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MREAD status %v", comp.Status)
	}
	vals := serial.DecodeI32(out)
	want := []int32{11, 22, 33, 44, 55, 66}
	if len(vals) != len(want) {
		t.Fatalf("decoded %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("vals = %v", vals)
		}
	}
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, 1)})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MDEINIT status %v", comp.Status)
	}
	if comp.Result != 6 {
		t.Fatalf("StorageApp return value = %d, want 6", comp.Result)
	}
	if c.Instances() != 0 {
		t.Fatal("MDEINIT must free the instance")
	}
}

func TestMReadWithoutInstance(t *testing.T) {
	c := newController(t, nil)
	comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildMRead(0, 0, 1, 42, 0)})
	if comp.Status != nvme.StatusNoInstance {
		t.Fatalf("status = %v, want NoInstance", comp.Status)
	}
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, 42)})
	if comp.Status != nvme.StatusNoInstance {
		t.Fatalf("deinit status = %v", comp.Status)
	}
}

func TestMInitRejects(t *testing.T) {
	c := newController(t, nil)
	img := compile(t, intAppSrc)
	// Duplicate instance ID.
	c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0), Code: img})
	comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0), Code: img})
	if comp.Status == nvme.StatusSuccess {
		t.Fatal("duplicate instance must be rejected")
	}
	// Garbage image.
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, 16, 2, 0, 0), Code: []byte("not an image....")})
	if comp.Status == nvme.StatusSuccess {
		t.Fatal("bad image must be rejected")
	}
	// Oversized image vs I-SRAM.
	big := make([]byte, testConfig().ISRAMSize+1)
	copy(big, img)
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(big)), 3, 0, 0), Code: big})
	if comp.Status != nvme.StatusSRAMOverflow {
		t.Fatalf("oversized image status = %v", comp.Status)
	}
	// Static arrays beyond D-SRAM, on a sampled MINIT whose VM the rig
	// memo would build lazily; a second MINIT must fail the same way.
	static, err := (&mvm.Program{Code: []mvm.Instr{{Op: mvm.OpHalt}}, SRAMStatic: 1 << 30}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(4); id < 6; id++ {
		comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(static)), id, 0, 0), Code: static, Native: intNative()})
		if comp.Status != nvme.StatusSRAMOverflow {
			t.Fatalf("static D-SRAM overflow status = %v", comp.Status)
		}
	}
}

func TestInvalidOpcode(t *testing.T) {
	c := newController(t, nil)
	comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.Command{Opcode: 0x7F}})
	if comp.Status != nvme.StatusInvalidOpcode {
		t.Fatalf("status = %v", comp.Status)
	}
}

func TestInstanceCorePinning(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.SampledExecution = false })
	img := compile(t, intAppSrc)
	input := []byte("1 2 3 4 5 6 7 8\n")
	slba, nlb, _ := c.LoadFile(0, input)
	n := len(c.Cores())
	for id := uint32(1); id <= uint32(n); id++ {
		c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), id, 0, 0), Code: img})
		c.Submit(0, &CmdContext{
			Cmd: nvme.BuildMRead(0, slba, nlb, id, 0), LastChunk: true, ValidBytes: len(input),
		})
	}
	busyCores := 0
	for _, core := range c.Cores() {
		if core.BusyTime() > 0 {
			busyCores++
		}
	}
	if busyCores != n {
		t.Fatalf("instance pinning spread work over %d of %d cores", busyCores, n)
	}
}

func TestSampledMatchesExactDataPlane(t *testing.T) {
	input := []byte("100 200 300\n400 500 600\n700 800\n")
	run := func(sampled bool) []byte {
		c := newController(t, func(cfg *Config) {
			cfg.SampledExecution = sampled
			cfg.SampleWindow = 8 // force the handoff mid-stream
		})
		slba, nlb, _ := c.LoadFile(0, input)
		img := compile(t, intAppSrc)
		ctx := &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0), Code: img}
		if sampled {
			ctx.Native = intNative()
		}
		c.Submit(0, ctx)
		var out []byte
		comp, _ := c.Submit(0, &CmdContext{
			Cmd:        nvme.BuildMRead(0, slba, nlb, 1, 0),
			Sink:       func(p []byte) { out = append(out, p...) },
			LastChunk:  true,
			ValidBytes: len(input),
		})
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("MREAD status %v (sampled=%v)", comp.Status, sampled)
		}
		return out
	}
	exact := run(false)
	sampled := run(true)
	if !bytes.Equal(exact, sampled) {
		t.Fatalf("sampled data plane differs: exact %d bytes, sampled %d bytes", len(exact), len(sampled))
	}
}

func TestMWriteSerializesToFlash(t *testing.T) {
	serSrc := `
StorageApp int ser(ms_stream s) {
	int b = ms_read_byte(s);
	while (b >= 0) {
		ms_printf("%d ", b);
		b = ms_read_byte(s);
	}
	ms_memcpy();
	return 0;
}
`
	c := newController(t, nil)
	// Reserve the destination extent.
	if _, _, err := c.LoadFile(0, make([]byte, 64*units.KiB)); err != nil {
		t.Fatal(err)
	}
	img := compile(t, serSrc)
	c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0), Code: img})
	var written []byte
	comp, _ := c.Submit(0, &CmdContext{
		Cmd:       nvme.BuildMWrite(0, 0, 1, 1, 0),
		Data:      []byte{7, 8, 9},
		LastChunk: true,
		Sink:      func(p []byte) { written = append(written, p...) },
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MWRITE status %v", comp.Status)
	}
	if string(written) != "7 8 9 " {
		t.Fatalf("serialized %q", written)
	}
	// The text landed on flash at the target LBA.
	var back []byte
	c.Submit(0, &CmdContext{
		Cmd:  nvme.BuildRead(0, 0, 1, 0),
		Sink: func(p []byte) { back = append(back, p...) },
	})
	if !bytes.HasPrefix(back, []byte("7 8 9 ")) {
		t.Fatalf("flash contains %q", back[:16])
	}
}

func TestTrapSurfacesAsAppFault(t *testing.T) {
	trapSrc := `
StorageApp int boom(ms_stream s) {
	int z = 0;
	return 1 / z;
}
`
	c := newController(t, nil)
	input := []byte("1\n")
	slba, nlb, _ := c.LoadFile(0, input)
	img := compile(t, trapSrc)
	c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0), Code: img})
	comp, _ := c.Submit(0, &CmdContext{
		Cmd: nvme.BuildMRead(0, slba, nlb, 1, 0), LastChunk: true, ValidBytes: len(input),
	})
	if comp.Status != nvme.StatusAppFault {
		t.Fatalf("status = %v, want AppFault", comp.Status)
	}
}
