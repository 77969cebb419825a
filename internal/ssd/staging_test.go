package ssd

import (
	"bytes"
	"math/rand"
	"testing"

	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// FuzzMReadStaging interleaves the MREAD trains of two sampled instances
// on one controller, each over its own random integer text cut into
// random LBA-granular chunks. The controller's staging, align and output
// buffers are shared by both, so a buffer that leaked one stream into the
// other, or a carry that aliased one, would change a stream's objects:
// each stream's Sink bytes must equal serial.ParseTokens of its whole
// text.
func FuzzMReadStaging(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(500), uint8(3), uint16(64))
	f.Add(int64(2), uint16(2000), uint16(7), uint8(40), uint16(1))
	f.Add(int64(3), uint16(1), uint16(1500), uint8(0), uint16(4000))
	img := compile(f, intAppSrc)
	f.Fuzz(func(t *testing.T, seed int64, tokensA, tokensB uint16, maxLBAs uint8, window uint16) {
		rng := rand.New(rand.NewSource(seed))
		c := newController(t, func(cfg *Config) {
			cfg.SampledExecution = true
			cfg.SampleWindow = units.Bytes(window) + 1
		})
		type stream struct {
			id     uint32
			text   []byte
			chunks []mreadChunk
			out    []byte
		}
		var streams [2]*stream
		page := int64(0)
		for i, n := range []uint16{tokensA, tokensB} {
			// No trailing separator: the final chunk ends mid-record.
			text := bytes.TrimRight(tokenText(rng, 1+int(n)%2000, false), " \n")
			slba, _, err := c.LoadFile(page, text)
			if err != nil {
				t.Fatal(err)
			}
			page += (int64(len(text)) + int64(c.pageSize) - 1) / int64(c.pageSize)
			s := &stream{id: uint32(i + 1), text: text}
			for off := 0; off < len(text); {
				n := min((1+rng.Intn(int(maxLBAs)%64+1))*nvme.LBASize, len(text)-off)
				nlb := (n + nvme.LBASize - 1) / nvme.LBASize
				ch := mreadChunk{slba: slba + uint64(off/nvme.LBASize), nlb: uint32(nlb)}
				if off+n == len(text) || rng.Intn(2) == 0 {
					ch.valid = n // else 0: the whole chunk is valid
				}
				s.chunks = append(s.chunks, ch)
				off += n
			}
			comp, _ := c.Submit(0, &CmdContext{
				Cmd:  nvme.BuildMInit(0, 0, uint32(len(img)), s.id, 0, 0),
				Code: img, Native: intNative(),
			})
			if comp.Status != nvme.StatusSuccess {
				t.Fatalf("stream %d: MINIT status %v", s.id, comp.Status)
			}
			streams[i] = s
		}
		for len(streams[0].chunks)+len(streams[1].chunks) > 0 {
			s := streams[rng.Intn(2)]
			if len(s.chunks) == 0 {
				continue
			}
			ch := s.chunks[0]
			s.chunks = s.chunks[1:]
			comp, _ := c.Submit(0, &CmdContext{
				Cmd:        nvme.BuildMRead(0, ch.slba, ch.nlb, s.id, 0),
				Sink:       func(p []byte) { s.out = append(s.out, p...) },
				LastChunk:  len(s.chunks) == 0,
				ValidBytes: ch.valid,
			})
			if comp.Status != nvme.StatusSuccess {
				t.Fatalf("stream %d: MREAD status %v", s.id, comp.Status)
			}
		}
		for _, s := range streams {
			want, err := serial.ParseTokens(s.text, serial.FieldInt32)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s.out, want) {
				t.Fatalf("stream %d: %d object bytes, want %d (first diff at %d)", s.id, len(s.out), len(want), firstDiff(s.out, want))
			}
			if comp, _ := c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, s.id)}); comp.Status != nvme.StatusSuccess {
				t.Fatalf("stream %d: MDEINIT status %v", s.id, comp.Status)
			}
		}
	})
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestLoadFileShortLastPage stages a file whose size is neither a page
// nor an LBA multiple. Reading its pages back returns the file's bytes
// followed by zeros, and the flash holds its own copy: scribbling over
// the caller's buffer afterwards changes nothing on the device.
func TestLoadFileShortLastPage(t *testing.T) {
	c := newController(t, nil)
	pageSize := int(c.pageSize)
	data := bytes.Repeat([]byte("12345 67\n"), (2*pageSize+1000)/9+1)[:2*pageSize+1000]
	want := append(bytes.Clone(data), make([]byte, pageSize-1000)...)
	slba, nlb, err := c.LoadFile(0, data)
	if err != nil {
		t.Fatal(err)
	}
	if wantNLB := (len(data) + nvme.LBASize - 1) / nvme.LBASize; int(nlb) != wantNLB {
		t.Fatalf("nlb = %d, want %d", nlb, wantNLB)
	}
	// A neighbour staged on the next page must not bleed into the tail.
	if _, _, err := c.LoadFile(3, bytes.Repeat([]byte{'9'}, pageSize)); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	lpp := uint32(c.lbasPerPage())
	var got []byte
	for p := uint32(0); p < 3; p++ {
		comp, _ := c.Submit(0, &CmdContext{
			Cmd:  nvme.BuildRead(0, slba+uint64(p*lpp), lpp, 0),
			Sink: func(b []byte) { got = append(got, b...) },
		})
		if comp.Status != nvme.StatusSuccess {
			t.Fatalf("READ of page %d: status %v", p, comp.Status)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes that differ from the file plus zero padding (%d bytes)", len(got), len(want))
	}
}
