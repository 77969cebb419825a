package core

import (
	"runtime"
	"testing"

	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/ssd"
	"morpheus/internal/units"
	"morpheus/internal/workload"
)

// grepDeserSrc is grep's StorageApp: ASCII dictionary ids to int64s.
const grepDeserSrc = `
StorageApp int inputapplet64(ms_stream s) {
	int v;
	int count = 0;
	while (ms_scanf(s, "%d", &v) == 1) {
		ms_emit_i64(v);
		count++;
	}
	ms_memcpy();
	return count;
}
`

func grepApp() *StorageApp {
	return &StorageApp{
		Name:   "grep",
		Source: grepDeserSrc,
		NativeFactory: func() ssd.NativeFunc {
			return func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
				return serial.AppendTokens(dst, chunk, serial.FieldInt64)
			}
		},
	}
}

func grepParser() HostParser {
	p := serial.TokenParser{Kind: serial.FieldInt64}
	return func(chunk []byte, final bool) []byte { return p.Parse(chunk, final) }
}

// grepFile stages a 256 KiB grep-shaped input (dictionary ids, about 9
// input bytes per 8-byte object) on a cache-less system with 32 KiB
// commands: eight chunks, every one of them with output.
func grepFile(t *testing.T) (*System, *File) {
	t.Helper()
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 32 * units.KiB
		c.SSD.ObjectCache = false
	})
	data := workload.DictionaryText(256*1024/9, 200000, 16, 1, 20160618)[0]
	f, err := sys.WriteFile("grep.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetTimers()
	return sys, f
}

// allocated reports the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack is the fixed allowance a guard grants on top of the result
// bytes: command contexts, trace and metric records, the per-run closures.
const allocSlack = 32 * 1024

// TestInvokeOutputAllocatedOnce guards the MREAD sink: the object buffer
// is sized once from the input watermark, so one invocation allocates
// about len(Out) for it, not the sum of every regrowth. Growing it chunk
// by chunk with append allocated 4.55x len(Out) here (1,059,184 bytes
// for 233,016 output bytes); sized once it is 1.10x.
func TestInvokeOutputAllocatedOnce(t *testing.T) {
	sys, f := grepFile(t)
	app := grepApp()
	invoke := func() *InvokeResult {
		res, err := sys.InvokeStorageApp(0, InvokeOptions{App: app, File: f})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := invoke() // warm-up: compile, rig memo, controller staging
	var res *InvokeResult
	n := allocated(func() { res = invoke() })
	if string(res.Out) != string(want.Out) {
		t.Fatal("second invocation changed the objects")
	}
	limit := uint64(len(res.Out))*5/4 + allocSlack
	t.Logf("allocated %d bytes for %d output bytes (%.2fx)", n, len(res.Out), float64(n)/float64(len(res.Out)))
	if n > limit {
		t.Errorf("invocation allocated %d bytes for %d output bytes, want <= %d", n, len(res.Out), limit)
	}
}

// TestDeserializeConventionalAllocatedOnce guards the conventional path:
// each raw chunk is reserved at its exact extent and the object buffer
// is sized from the raw watermark. What remains is the raw chunks (1x
// the file), the record aligner's carry-plus-chunk buffers (1.2x, a
// size class above 32 KiB), the parser's per-chunk objects (1x) and the
// result (0.9x): 4.19x the file here. Growing the raw chunks page by
// page and the result chunk by chunk allocated 8.25x (2,163,696 bytes
// for a 262,143-byte file); without the raw reservation it is 5.19x,
// without the sized result 7.26x.
func TestDeserializeConventionalAllocatedOnce(t *testing.T) {
	sys, f := grepFile(t)
	deser := func() *DeserResult {
		res, err := sys.DeserializeConventional(0, f, grepParser(), ParseSpec{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deser()
	var res *DeserResult
	n := allocated(func() { res = deser() })
	limit := uint64(f.Size)*17/4 + allocSlack
	t.Logf("allocated %d bytes for a %d-byte file (%.2fx)", n, f.Size, float64(n)/float64(f.Size))
	if n > limit {
		t.Errorf("conventional deserialization allocated %d bytes for a %v file (%d output bytes), want <= %d",
			n, f.Size, len(res.Out), limit)
	}
}

// TestReadRawReservesExtent guards the replica re-fetch: ReadRaw reserves
// the file's LBA-rounded extent once and trims it to the logical size.
// Appending page by page left capacity 294,912 for the 262,143-byte file.
func TestReadRawReservesExtent(t *testing.T) {
	sys, f := grepFile(t)
	want, ok := sys.ReplicaData(f.Name)
	if !ok {
		t.Fatal("no local replica")
	}
	got, _, err := sys.ReadRaw(0, f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("ReadRaw returned %d bytes that differ from the %d staged", len(got), len(want))
	}
	if extent := int(f.NLB) * nvme.LBASize; cap(got) != extent {
		t.Errorf("cap = %d, want the %d-byte extent", cap(got), extent)
	}
}
