package core

import (
	"runtime"
	"testing"

	"morpheus/internal/nvme"
	"morpheus/internal/serial"
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
		Native: func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
			return serial.AppendTokens(dst, chunk, serial.FieldInt64)
		},
	}
}

// reusingParser is a host parser for one field kind with the buffer reuse
// apps.App's parsers have: every chunk's objects are appended into one
// buffer, sized exactly on the first call.
func reusingParser(kind serial.FieldKind) HostParser {
	var buf []byte
	return func(chunk []byte, final bool) []byte {
		var err error
		if buf == nil {
			buf, err = serial.ParseTokens(chunk, kind)
		} else {
			buf, err = serial.AppendTokens(buf[:0], chunk, kind)
		}
		if err != nil {
			panic(err)
		}
		return buf
	}
}

// grepFile stages a grep-shaped input of about size bytes (dictionary
// ids, about 9 input bytes per 8-byte object) on a cache-less system with
// 32 KiB commands: at 256 KiB, eight chunks, every one of them with
// output.
func grepFile(t *testing.T, size int) (*System, *File) {
	t.Helper()
	sys := newTestSystem(t, func(c *SystemConfig) {
		c.WithGPU = false
		c.SSD.MDTS = 32 * units.KiB
		c.SSD.ObjectCache = false
	})
	data := workload.DictionaryText(int64(size/9), 200000, 16, 1, 20160618)[0]
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

// intoLimit bounds what an invocation into a warmed Into allocates. What
// is left is about 1 KiB per command (contexts, sinks, completions, ledger
// intervals): 9,648 bytes for the 8 commands of a 256 KiB file and 32,192
// for the 32 of a 1 MiB file, against 255,408 and 998,848 when Into is
// ignored.
const intoLimit = 2 * allocSlack

// TestInvokeOutputAllocatedOnce guards the MREAD sink: the object buffer
// is sized once from the input watermark, so one invocation allocates
// about len(Out) for it, not the sum of every regrowth. Growing it chunk
// by chunk with append allocated 4.55x len(Out) here (1,059,184 bytes
// for 233,016 output bytes); sized once it is 1.10x.
func TestInvokeOutputAllocatedOnce(t *testing.T) {
	sys, f := grepFile(t, 256*1024)
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

	// With a warmed Into the objects land in the caller's buffer, so what
	// an invocation allocates does not grow with its output.
	for _, size := range []int{256 * 1024, 1024 * 1024} {
		sys, f := grepFile(t, size)
		into := func() []byte {
			res, err := sys.InvokeStorageApp(0, InvokeOptions{App: app, File: f})
			if err != nil {
				t.Fatal(err)
			}
			return res.Out
		}()
		var res *InvokeResult
		n := allocated(func() {
			var err error
			if res, err = sys.InvokeStorageApp(0, InvokeOptions{App: app, File: f, Into: into}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-byte file, Into warmed: allocated %d bytes for %d output bytes", f.Size, n, len(res.Out))
		if &res.Out[0] != &into[0] {
			t.Errorf("%d-byte file: Out does not alias a warmed Into", f.Size)
		}
		if n > intoLimit {
			t.Errorf("%d-byte file: invocation into a warmed Into allocated %d bytes, want <= %d", f.Size, n, intoLimit)
		}
	}
}

// TestDeserializeConventionalAllocatedOnce guards the conventional path:
// each raw chunk is reserved at its exact extent, parsed raw chunks are
// recycled, the record aligner joins carry and chunk in one scratch, the
// parser appends into one buffer, and the object buffer is sized from the
// raw watermark. What remains is the raw buffers live in the readahead
// window (five 32 KiB chunks, 0.63x the 262,143-byte file), the parser's
// buffer (sized on its first chunk and regrown once, 0.26x), the
// aligner's scratch (0.15x) and the result (0.94x): 2.04x. A fresh raw
// buffer, join and parser output per chunk allocated 4.19x (raw 1x, joins
// 1.2x, objects 1x, result 0.9x); growing the raw chunks page by page and
// the result chunk by chunk as well, 8.25x.
func TestDeserializeConventionalAllocatedOnce(t *testing.T) {
	sys, f := grepFile(t, 256*1024)
	deser := func() *DeserResult {
		res, err := sys.DeserializeConventional(0, f, reusingParser(serial.FieldInt64), ParseSpec{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	deser()
	var res *DeserResult
	n := allocated(func() { res = deser() })
	limit := uint64(f.Size)*11/4 + allocSlack
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
	sys, f := grepFile(t, 256*1024)
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
