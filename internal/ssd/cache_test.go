package ssd

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"morpheus/internal/flash"
	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/stats"
	"morpheus/internal/units"
)

const serAppSrc = `
StorageApp int ser(ms_stream s) {
	int b = ms_read_byte(s);
	while (b >= 0) {
		ms_printf("%d ", b);
		b = ms_read_byte(s);
	}
	ms_memcpy();
	return 42;
}
`

func cacheConfigMutate(sampled bool) func(*Config) {
	return func(cfg *Config) {
		cfg.ObjectCache = true
		cfg.SampledExecution = sampled
	}
}

func intNative() NativeFunc {
	return func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
		return serial.AppendTokens(dst, chunk, serial.FieldInt32)
	}
}

// mread runs one full MINIT/MREAD.../MDEINIT lifetime over the extent and
// returns the produced object bytes plus the MDEINIT result.
func mread(t *testing.T, c *Controller, id uint32, sampled bool, slba uint64, chunks []mreadChunk) ([]byte, uint32) {
	t.Helper()
	img := compile(t, intAppSrc)
	ctx := &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), id, 0, 0), Code: img}
	if sampled {
		ctx.Native = intNative()
	}
	comp, _ := c.Submit(0, ctx)
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MINIT status %v", comp.Status)
	}
	var out []byte
	for i, ch := range chunks {
		comp, _ = c.Submit(0, &CmdContext{
			Cmd:        nvme.BuildMRead(0, ch.slba, ch.nlb, id, 0),
			Sink:       func(p []byte) { out = append(out, p...) },
			LastChunk:  i == len(chunks)-1,
			ValidBytes: ch.valid,
		})
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("MREAD chunk %d status %v", i, comp.Status)
		}
	}
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, id)})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MDEINIT status %v", comp.Status)
	}
	return out, comp.Result
}

type mreadChunk struct {
	slba  uint64
	nlb   uint32
	valid int
}

func TestCacheHitServesIdenticalObjects(t *testing.T) {
	for _, mode := range []struct {
		name    string
		sampled bool
	}{{"exact", false}, {"sampled", true}} {
		t.Run(mode.name, func(t *testing.T) {
			c := newController(t, cacheConfigMutate(mode.sampled))
			input := []byte("11 22 33 44\n55 66\n")
			slba, nlb, err := c.LoadFile(0, input)
			if err != nil {
				t.Fatal(err)
			}
			chunks := []mreadChunk{{slba, nlb, len(input)}}
			out1, ret1 := mread(t, c, 1, mode.sampled, slba, chunks)
			out2, ret2 := mread(t, c, 2, mode.sampled, slba, chunks)
			if !bytes.Equal(out1, out2) {
				t.Fatalf("cached run differs: %d vs %d bytes", len(out1), len(out2))
			}
			if ret1 != ret2 {
				t.Fatalf("MDEINIT results differ: %d vs %d", ret1, ret2)
			}
			vals := serial.DecodeI32(out2)
			want := []int32{11, 22, 33, 44, 55, 66}
			if len(vals) != len(want) {
				t.Fatalf("decoded %v", vals)
			}
			for i := range want {
				if vals[i] != want[i] {
					t.Fatalf("vals = %v", vals)
				}
			}
			if h := c.counters.Get(stats.SSDCacheHits); h != 1 {
				t.Fatalf("hits = %d, want 1", h)
			}
			if m := c.counters.Get(stats.SSDCacheMisses); m != 1 {
				t.Fatalf("misses = %d, want 1", m)
			}
			if c.CacheEntries() != 1 {
				t.Fatalf("entries = %d", c.CacheEntries())
			}
			if c.CacheBytes() <= 0 || c.CacheBytes() > c.CacheCapacity() {
				t.Fatalf("occupancy %d outside (0, %d]", c.CacheBytes(), c.CacheCapacity())
			}
		})
	}
}

func TestCacheMultiChunkSampledStream(t *testing.T) {
	c := newController(t, func(cfg *Config) {
		cfg.ObjectCache = true
		cfg.SampledExecution = true
		cfg.SampleWindow = 64 // rig freezes inside the first chunk
	})
	var input []byte
	for i := 0; len(input) < 40<<10; i++ {
		input = append(input, []byte(fmt.Sprintf("%d ", i*7))...)
		if i%8 == 7 {
			input = append(input, '\n')
		}
	}
	input = append(input, '\n')
	slba, _, err := c.LoadFile(0, input)
	if err != nil {
		t.Fatal(err)
	}
	// Page-sized chunks, byte-precise final chunk.
	pageBytes := int(testConfig().Geometry.PageSize)
	var chunks []mreadChunk
	for off := 0; off < len(input); off += pageBytes {
		n := len(input) - off
		if n > pageBytes {
			n = pageBytes
		}
		nlb := uint32((n + nvme.LBASize - 1) / nvme.LBASize)
		chunks = append(chunks, mreadChunk{slba + uint64(off/nvme.LBASize), nlb, n})
	}
	if len(chunks) < 3 {
		t.Fatalf("want a multi-chunk stream, got %d chunks", len(chunks))
	}
	out1, ret1 := mread(t, c, 1, true, slba, chunks)
	out2, ret2 := mread(t, c, 2, true, slba, chunks)
	if !bytes.Equal(out1, out2) {
		t.Fatalf("cached stream differs: %d vs %d bytes", len(out1), len(out2))
	}
	if ret1 != ret2 {
		t.Fatalf("MDEINIT results differ: %d vs %d", ret1, ret2)
	}
	// The first chunk is never replayable (the timing rig is still inside
	// its sample window); every later chunk of the second pass must hit.
	wantHits := int64(len(chunks) - 1)
	if h := c.counters.Get(stats.SSDCacheHits); h != wantHits {
		t.Fatalf("hits = %d, want %d", h, wantHits)
	}
}

func TestCacheWriteInvalidates(t *testing.T) {
	c := newController(t, cacheConfigMutate(false))
	page := func(text string) []byte {
		buf := bytes.Repeat([]byte{' '}, nvme.LBASize)
		copy(buf, text)
		buf[len(buf)-1] = '\n'
		return buf
	}
	slba, nlb, err := c.LoadFile(0, page("11 22 33"))
	if err != nil {
		t.Fatal(err)
	}
	chunks := []mreadChunk{{slba, nlb, nvme.LBASize}}
	out1, _ := mread(t, c, 1, false, slba, chunks)
	if got := serial.DecodeI32(out1); len(got) != 3 || got[0] != 11 {
		t.Fatalf("first read decoded %v", got)
	}
	// Overwrite the extent through the conventional path.
	comp, _ := c.Submit(0, &CmdContext{
		Cmd:  nvme.BuildWrite(0, slba, nlb, 0),
		Data: page("77 88 99"),
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("WRITE status %v", comp.Status)
	}
	if inv := c.counters.Get(stats.SSDCacheInvalidations); inv < 1 {
		t.Fatalf("invalidations = %d, want >= 1", inv)
	}
	if c.CacheEntries() != 0 {
		t.Fatalf("stale entries survive the write: %d", c.CacheEntries())
	}
	// The re-read must see the new bytes, not the cached objects.
	out2, _ := mread(t, c, 2, false, slba, chunks)
	if got := serial.DecodeI32(out2); len(got) != 3 || got[0] != 77 || got[1] != 88 || got[2] != 99 {
		t.Fatalf("post-write read decoded %v", got)
	}
	if h := c.counters.Get(stats.SSDCacheHits); h != 0 {
		t.Fatalf("hits = %d after invalidation, want 0", h)
	}
	// Positive control: with no intervening write the third read hits and
	// reproduces the post-write objects.
	out3, _ := mread(t, c, 3, false, slba, chunks)
	if !bytes.Equal(out2, out3) {
		t.Fatal("cache hit diverged from the uncached post-write read")
	}
	if h := c.counters.Get(stats.SSDCacheHits); h != 1 {
		t.Fatalf("hits = %d, want 1", h)
	}
}

// TestCacheOverlapInvalidationProperty cross-checks objectCache.invalidate
// against a brute-force mirror over randomized extents and write ranges.
func TestCacheOverlapInvalidationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20160618))
	oc := newObjectCache(1 << 30)
	live := make(map[cacheKey][]extent)
	for i := 0; i < 200; i++ {
		key := cacheKey{slba: uint64(i), appHash: r.Uint64()}
		var exts []extent
		for n := 1 + r.Intn(3); n > 0; n-- {
			exts = append(exts, extent{slba: uint64(r.Intn(4096)), nlb: uint32(1 + r.Intn(64))})
		}
		oc.put(&cacheEntry{key: key, out: []byte{1}, extents: exts}, 1<<30)
		live[key] = exts
	}
	overlapsAny := func(exts []extent, slba uint64, nlb uint32) bool {
		for _, x := range exts {
			if x.overlaps(slba, nlb) {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 100; trial++ {
		slba := uint64(r.Intn(4200))
		nlb := uint32(1 + r.Intn(128))
		want := 0
		for key, exts := range live {
			if overlapsAny(exts, slba, nlb) {
				want++
				delete(live, key)
			}
		}
		got := oc.invalidate(slba, nlb)
		if got != want {
			t.Fatalf("trial %d: invalidate(%d,%d) dropped %d entries, brute force says %d",
				trial, slba, nlb, got, want)
		}
		if oc.len() != len(live) {
			t.Fatalf("trial %d: %d live entries, mirror has %d", trial, oc.len(), len(live))
		}
	}
}

func TestCacheLRUEvictionAndBudget(t *testing.T) {
	entry := func(i int, n int) *cacheEntry {
		return &cacheEntry{key: cacheKey{slba: uint64(i)}, out: make([]byte, n)}
	}
	size := entrySize(entry(0, 1000))
	oc := newObjectCache(3 * size)
	big := units.Bytes(1 << 30)
	for i := 0; i < 4; i++ {
		oc.put(entry(i, 1000), big)
	}
	if oc.len() != 3 || oc.evictions != 1 {
		t.Fatalf("len=%d evictions=%d after overflow, want 3/1", oc.len(), oc.evictions)
	}
	if _, ok := oc.get(cacheKey{slba: 0}); ok {
		t.Fatal("oldest entry must be the one evicted")
	}
	if oc.bytes() > oc.limit {
		t.Fatalf("occupancy %d exceeds limit %d", oc.bytes(), oc.limit)
	}
	// Touch entry 1 so entry 2 becomes LRU, then overflow again.
	if _, ok := oc.get(cacheKey{slba: 1}); !ok {
		t.Fatal("entry 1 missing")
	}
	oc.put(entry(4, 1000), big)
	if _, ok := oc.get(cacheKey{slba: 1}); !ok {
		t.Fatal("recently used entry evicted ahead of LRU")
	}
	if _, ok := oc.get(cacheKey{slba: 2}); ok {
		t.Fatal("LRU entry must be the one evicted")
	}
	// The spare-DRAM budget caps admission below the cache's own limit.
	oc2 := newObjectCache(1 << 20)
	oc2.put(entry(0, 1000), size-1)
	if oc2.len() != 0 {
		t.Fatal("entry larger than the DRAM budget must not be cached")
	}
	// Oversized entries are skipped without evicting anything.
	oc.put(entry(5, int(3*size)), big)
	if oc.evictions != 2 || oc.len() != 3 {
		t.Fatalf("oversized put disturbed the cache: len=%d evictions=%d", oc.len(), oc.evictions)
	}
}

func TestMInitEvictsCacheUnderDRAMPressure(t *testing.T) {
	c := newController(t, func(cfg *Config) {
		cfg.ObjectCache = true
		// Room for two instance buffers (2 x 3 x MDTS = 768 KiB) plus a
		// little slack, so a ~50 KiB cached object forces the second MINIT
		// to evict.
		cfg.DRAMSize = 800 * units.KiB
		cfg.ObjectCacheSize = 800 * units.KiB
	})
	c.cache.put(&cacheEntry{key: cacheKey{slba: 1}, out: make([]byte, 50<<10)}, c.cacheSpareDRAM())
	if c.CacheEntries() != 1 {
		t.Fatal("seed entry not cached")
	}
	img := compile(t, intAppSrc)
	for id := uint32(1); id <= 2; id++ {
		comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), id, 0, 0), Code: img})
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("MINIT %d status %v", id, comp.Status)
		}
	}
	if c.CacheEntries() != 0 {
		t.Fatalf("cache still holds %d entries; instance buffers must outrank it", c.CacheEntries())
	}
	if ev := c.counters.Get(stats.SSDCacheEvictions); ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
	if c.PinnedDRAM()+c.CacheBytes() > c.cfg.DRAMSize {
		t.Fatalf("DRAM overcommitted: %d pinned + %d cached > %d",
			c.PinnedDRAM(), c.CacheBytes(), c.cfg.DRAMSize)
	}
}

func TestMInitUnmappedCodePointerFails(t *testing.T) {
	c := newController(t, nil)
	img := compile(t, intAppSrc)
	comp, _ := c.Submit(0, &CmdContext{
		Cmd: nvme.BuildMInit(0, unmappedAddr, uint32(len(img)), 1, 0, 0), Code: img,
	})
	if comp.Status != nvme.StatusInvalidField {
		t.Fatalf("status = %v, want InvalidField", comp.Status)
	}
	if c.Instances() != 0 {
		t.Fatal("failed MINIT must not register an instance")
	}
	if c.PinnedDRAM() != 0 {
		t.Fatalf("failed MINIT leaked %d bytes of DRAM", c.PinnedDRAM())
	}
	// The same MINIT with a mapped code pointer goes through.
	comp, _ = c.Submit(0, &CmdContext{
		Cmd: nvme.BuildMInit(0, 0x8000, uint32(len(img)), 1, 0, 0), Code: img,
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("mapped MINIT status %v", comp.Status)
	}
}

func TestMWriteUnmappedSourceFails(t *testing.T) {
	c := newController(t, nil)
	img := compile(t, serAppSrc)
	comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0x8000, uint32(len(img)), 1, 0, 0), Code: img})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MINIT status %v", comp.Status)
	}
	sinkFired := false
	comp, _ = c.Submit(0, &CmdContext{
		Cmd:       nvme.BuildMWrite(0, 0, 1, 1, unmappedAddr),
		Data:      []byte{7, 8, 9},
		LastChunk: true,
		Sink:      func([]byte) { sinkFired = true },
	})
	if comp.Status != nvme.StatusInvalidField {
		t.Fatalf("status = %v, want InvalidField", comp.Status)
	}
	if sinkFired {
		t.Fatal("failed MWRITE must not deliver data")
	}
	if cyc := c.counters.Get(stats.StorageAppCyc); cyc != 0 {
		t.Fatalf("failed MWRITE charged %d StorageApp cycles", cyc)
	}
	if c.Instances() != 1 {
		t.Fatal("failed DMA must not kill the instance")
	}
	// The instance still works once the source is mapped.
	comp, _ = c.Submit(0, &CmdContext{
		Cmd:       nvme.BuildMWrite(0, 0, 1, 1, 0x8000),
		Data:      []byte{7, 8, 9},
		LastChunk: true,
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("mapped MWRITE status %v", comp.Status)
	}
}

func TestMWriteProgramFaultDoesNotCommit(t *testing.T) {
	c := newController(t, nil)
	img := compile(t, serAppSrc)
	comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 1, 0, 0), Code: img})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MINIT status %v", comp.Status)
	}
	// Every program operation now fails: the serialized bytes can never
	// reach flash.
	c.Flash.SetFaultModel(flash.FaultModel{ProgramPerM: 1_000_000})
	sinkFired := false
	comp, _ = c.Submit(0, &CmdContext{
		Cmd:       nvme.BuildMWrite(0, 0, 1, 1, 0),
		Data:      []byte{7, 8, 9},
		LastChunk: true,
		Sink:      func([]byte) { sinkFired = true },
	})
	if comp.Status == nvme.StatusSuccess {
		t.Fatal("MWRITE must fail when the program operation faults")
	}
	if sinkFired {
		t.Fatal("failed MWRITE must not deliver data")
	}
	if cyc := c.counters.Get(stats.StorageAppCyc); cyc != 0 {
		t.Fatalf("failed MWRITE committed %d StorageApp cycles", cyc)
	}
	if c.Flash.ProgramFaults() < 1 {
		t.Fatal("fault model never fired")
	}
	// The failed chunk is not committed: the instance has not finished and
	// its return value is unset.
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, 1)})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MDEINIT status %v", comp.Status)
	}
	if comp.Result != 0 {
		t.Fatalf("MDEINIT result = %d after failed MWRITE, want 0", comp.Result)
	}
}

func TestCacheCountersSilentWhenDisabled(t *testing.T) {
	c := newController(t, func(cfg *Config) { cfg.SampledExecution = false })
	if c.CacheEnabled() {
		t.Fatal("cache must default to off")
	}
	input := []byte("1 2 3\n")
	slba, nlb, err := c.LoadFile(0, input)
	if err != nil {
		t.Fatal(err)
	}
	chunks := []mreadChunk{{slba, nlb, len(input)}}
	mread(t, c, 1, false, slba, chunks)
	mread(t, c, 2, false, slba, chunks)
	for _, name := range []string{
		stats.SSDCacheHits, stats.SSDCacheMisses,
		stats.SSDCacheEvictions, stats.SSDCacheInvalidations,
	} {
		if v := c.counters.Get(name); v != 0 {
			t.Fatalf("%s = %d with the cache disabled", name, v)
		}
	}
}
