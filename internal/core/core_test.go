package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"morpheus/internal/serial"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

// intDeserSrc is the Figure 7 StorageApp: ASCII integers -> binary int32s.
const intDeserSrc = `
StorageApp int inputapplet(ms_stream s) {
	int v;
	int count = 0;
	while (ms_scanf(s, "%d", &v) == 1) {
		ms_emit_i32(v);
		count++;
	}
	ms_memcpy();
	return count;
}
`

func intApp(sampled bool) *StorageApp {
	app := &StorageApp{Name: "inputapplet", Source: intDeserSrc}
	if sampled {
		app.Native = func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
			return serial.AppendTokens(dst, chunk, serial.FieldInt32)
		}
	}
	return app
}

func testInput(n int, seed int64) ([]byte, []int64) {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Int31()) - 1<<30
	}
	return serial.EncodeIntsText(vals, 8), vals
}

func newTestSystem(t *testing.T, mutate func(*SystemConfig)) *System {
	t.Helper()
	cfg := DefaultSystemConfig()
	cfg.SSD.Geometry.BlocksPerPlane = 64 // keep test arrays small
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMorpheusMatchesConventional(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		t.Run(fmt.Sprintf("sampled=%v", sampled), func(t *testing.T) {
			sys := newTestSystem(t, func(c *SystemConfig) {
				c.SSD.SampledExecution = sampled
				c.WithGPU = false
			})
			size := 1 << 20
			if !sampled {
				size = 1 << 18 // exact interpretation is slower
			}
			data, vals := testInput(size/8, 42)
			f, err := sys.WriteFile("ints.txt", data)
			if err != nil {
				t.Fatal(err)
			}
			sys.ResetTimers()

			// Conventional path.
			parser := serial.TokenParser{Kind: serial.FieldInt32}
			conv, err := sys.DeserializeConventional(0, f,
				func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
				ParseSpec{}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Morpheus path.
			inv, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(sampled), File: f})
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(conv.Out, inv.Out) {
				t.Fatalf("object streams differ: conventional %d bytes, morpheus %d bytes", len(conv.Out), len(inv.Out))
			}
			got := serial.DecodeI32(inv.Out)
			if len(got) != len(vals) {
				t.Fatalf("decoded %d values, want %d", len(got), len(vals))
			}
			for i := range got {
				if int64(got[i]) != int64(int32(vals[i])) {
					t.Fatalf("value %d: got %d want %d", i, got[i], vals[i])
				}
			}
			if conv.RawBytes != units.Bytes(len(data)) {
				t.Errorf("raw bytes read = %v, want %d", conv.RawBytes, len(data))
			}
		})
	}
}

func TestMorpheusFasterAndFewerSwitches(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<18, 7)
	f, err := sys.WriteFile("ints.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()

	parser := serial.TokenParser{Kind: serial.FieldInt32}
	conv, err := sys.DeserializeConventional(0, f,
		func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
		ParseSpec{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	convSwitches := sys.Counters.Get(stats.CtxSwitches)
	convTime := conv.Done

	sys2 := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	f2, err := sys2.WriteFile("ints.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	sys2.ResetTimers()
	inv, err := sys2.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f2})
	if err != nil {
		t.Fatal(err)
	}
	morphSwitches := sys2.Counters.Get(stats.CtxSwitches)

	speedup := float64(convTime) / float64(inv.Done)
	if speedup < 1.2 {
		t.Errorf("Morpheus deserialization speedup = %.2f, want > 1.2 (conv %v, morpheus %v)",
			speedup, convTime, inv.Done)
	}
	if morphSwitches*5 > convSwitches {
		t.Errorf("context switches: morpheus %d vs conventional %d — expected >80%% reduction",
			morphSwitches, convSwitches)
	}
	if inv.CyclesPerByte <= 0 {
		t.Errorf("measured cycles/byte = %v, want > 0", inv.CyclesPerByte)
	}
}

func TestFTLUntouchedByMorpheus(t *testing.T) {
	// §IV-B: Morpheus performs no changes to the FTL. The mapping after
	// MREAD-driven access must equal the mapping after conventional reads.
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data, _ := testInput(1<<15, 3)
	f, err := sys.WriteFile("ints.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	before := sys.SSD.FTL.Snapshot()

	parser := serial.TokenParser{Kind: serial.FieldInt32}
	if _, err := sys.DeserializeConventional(0, f,
		func(chunk []byte, final bool) []byte { return parser.Parse(chunk, final) },
		ParseSpec{}, 0, nil); err != nil {
		t.Fatal(err)
	}
	afterConv := sys.SSD.FTL.Snapshot()
	if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f}); err != nil {
		t.Fatal(err)
	}
	afterMorph := sys.SSD.FTL.Snapshot()

	for lba, ppa := range before {
		if afterConv[lba] != ppa {
			t.Fatalf("conventional read moved lba %d", lba)
		}
		if afterMorph[lba] != ppa {
			t.Fatalf("MREAD moved lba %d: FTL must be untouched", lba)
		}
	}
	if err := sys.SSD.FTL.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestP2PBypassesHostMemory(t *testing.T) {
	data, _ := testInput(1<<17, 11)

	run := func(p2p bool) (hostBytes, p2pBytes int64, err error) {
		sys := newTestSystem(t, nil)
		f, err := sys.WriteFile("ints.txt", data)
		if err != nil {
			return 0, 0, err
		}
		if p2p {
			if err := sys.EnableP2P(); err != nil {
				return 0, 0, err
			}
		}
		sys.ResetTimers()
		dest := Target{OnGPU: p2p}
		if _, err := sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f, Dest: dest}); err != nil {
			return 0, 0, err
		}
		return sys.Counters.Get(stats.PCIeHostBytes), sys.Counters.Get(stats.PCIeP2PBytes), nil
	}

	hostB, p2pB, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	if p2pB != 0 {
		t.Errorf("non-P2P run produced %d peer bytes", p2pB)
	}
	if hostB == 0 {
		t.Error("non-P2P run produced no host PCIe traffic")
	}
	hostB2, p2pB2, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if p2pB2 == 0 {
		t.Error("P2P run produced no peer-to-peer traffic")
	}
	// With P2P the object stream goes device-to-device; only protocol
	// packets (SQE/CQE fetches, code image) cross into host memory.
	if hostB2 >= hostB/2 {
		t.Errorf("P2P host traffic %d not substantially below non-P2P %d", hostB2, hostB)
	}
}

func TestP2PRequiresBAR(t *testing.T) {
	sys := newTestSystem(t, nil)
	data, _ := testInput(1<<12, 5)
	f, err := sys.WriteFile("ints.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.InvokeStorageApp(0, InvokeOptions{App: intApp(true), File: f, Dest: Target{OnGPU: true}})
	if err == nil {
		t.Fatal("expected error: GPU destination without EnableP2P")
	}
}

// TestNoCoresIsAnError: a host CPU without cores is a configuration
// error from NewSystem, not a panic from building its core pool.
func TestNoCoresIsAnError(t *testing.T) {
	for _, cores := range []int{0, -1} {
		cfg := DefaultSystemConfig()
		cfg.CPU.Cores = cores
		if sys, err := NewSystem(cfg); err == nil || sys != nil {
			t.Errorf("NewSystem with %d cores = %v, %v; want an error", cores, sys, err)
		}
	}
}

func TestSerializeStorageApp(t *testing.T) {
	// MWRITE direction: binary int32 objects -> decimal text on flash.
	serSrc := `
StorageApp int serializer(ms_stream s) {
	int lo = ms_read_byte(s);
	while (lo >= 0) {
		int b1 = ms_read_byte(s);
		int b2 = ms_read_byte(s);
		int b3 = ms_read_byte(s);
		int v = lo | (b1 << 8) | (b2 << 16) | (b3 << 24);
		// Sign-extend 32 bits.
		v = (v << 32) >> 32;
		ms_printf("%d\n", v);
		lo = ms_read_byte(s);
	}
	ms_memcpy();
	return 0;
}
`
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	// Reserve an output extent.
	blank := make([]byte, 1<<16)
	f, err := sys.WriteFile("out.txt", blank)
	if err != nil {
		t.Fatal(err)
	}
	vals := []int32{1, -2, 30000, -400000, 0}
	app := &StorageApp{Name: "serializer", Source: serSrc}
	res, err := sys.SerializeStorageApp(0, app, f, serial.EncodeI32(vals), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "1\n-2\n30000\n-400000\n0\n"
	if string(res.Written) != want {
		t.Fatalf("serialized %q, want %q", res.Written, want)
	}
}

func TestChunkSplitMatchesMDTS(t *testing.T) {
	sys := newTestSystem(t, func(c *SystemConfig) { c.WithGPU = false })
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = 'x'
	}
	data[len(data)-1] = '\n'
	f, err := sys.WriteFile("blob", data)
	if err != nil {
		t.Fatal(err)
	}
	chunks := sys.chunksOf(f)
	wantCmds := (len(data) + int(sys.Cfg.SSD.MDTS) - 1) / int(sys.Cfg.SSD.MDTS)
	if len(chunks) != wantCmds {
		t.Fatalf("chunks = %d, want %d", len(chunks), wantCmds)
	}
	var total int64
	for i, c := range chunks {
		total += int64(c.nlb) * 4096
		if c.last != (i == len(chunks)-1) {
			t.Fatalf("chunk %d last flag wrong", i)
		}
	}
	if total < int64(len(data)) {
		t.Fatalf("chunks cover %d bytes, file is %d", total, len(data))
	}
}
