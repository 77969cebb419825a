package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"morpheus/internal/mvm"
	"morpheus/internal/nvme"
	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// floatLimitAppSrc scans float tokens until the stream ends or it has
// emitted ms_arg(0) of them, so a small argument halts it inside the
// sample window.
const floatLimitAppSrc = `
StorageApp int app(ms_stream s) {
	float v;
	int n = 0;
	int limit = ms_arg(0);
	while (n < limit && ms_scanf(s, "%f", &v) == 1) { ms_emit_f32(v); n++; }
	ms_memcpy();
	return n * 4;
}
`

func floatNative() NativeFunc {
	return func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
		return serial.AppendTokens(dst, chunk, serial.FieldFloat32)
	}
}

// withoutRigMemo is the test seam that turns the rig memo off: every MINIT
// decodes its image and every rig interprets, as with no memo at all.
func withoutRigMemo(c *Controller) *Controller {
	c.memo = nil
	return c
}

// rigStep is one chunk of a stream as processChunk receives it.
type rigStep struct {
	chunk []byte
	final bool
}

// rigStream is one StorageApp lifetime: image, arguments and chunks.
type rigStream struct {
	img    []byte
	args   []int64
	native NativeFunc
	steps  []rigStep
}

// rigChunkObs is everything one chunk makes observable, and the carried
// partial record it leaves for the next chunk.
type rigChunkObs struct {
	Cycles, CPB float64
	Out         []byte
	Carry       string
	Halted      bool
	Err         bool
}

// rigObs is a stream's observable outcome.
type rigObs struct {
	Chunks            []rigChunkObs
	RetVal            uint32
	InBytes, OutBytes int64
	Cycles, CPB       float64
	Instances         int
	PinnedDRAM        units.Bytes
}

// How a chunk reached the timing rig.
const (
	rigSkipped = "s" // rig done or past the window: not fed
	rigHit     = "h" // read from the memo
	rigLive    = "l" // interpreted
)

// How a chunk's data plane was served.
const (
	planeReplayed = "r" // copied from the plane recorded on the chunk's memo node
	planeParsed   = "p" // aligned and handed to the native function
)

// rigPath is how each chunk of a stream was served: one rig* and one
// plane* letter per chunk, and the native calls each chunk made.
type rigPath struct {
	rig, plane string
	calls      []int
}

// runRigStream runs one lifetime on c: MINIT through Submit, each chunk
// through processChunk (the body of MREAD, releasing the slot on a trap
// as doMRead does), then MDEINIT. It counts the stream's native calls
// and fails the test if a replayed chunk made one.
func runRigStream(t testing.TB, c *Controller, s rigStream) (o rigObs, path rigPath) {
	t.Helper()
	const id = 7
	calls := 0
	native := s.native
	if native != nil {
		native = func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
			calls++
			return s.native(dst, chunk, final, args)
		}
	}
	comp, _ := c.Submit(0, &CmdContext{
		Cmd:  nvme.BuildMInit(0, 0, uint32(len(s.img)), id, uint32(len(s.args)), 0),
		Code: s.img, Args: s.args, Native: native,
	})
	if comp.Status != nvme.StatusSuccess {
		t.Fatalf("MINIT status %v", comp.Status)
	}
	in := c.instances[id]
	window := int64(c.cfg.SampleWindow)
	for i, st := range s.steps {
		var next *rigNode
		fed := !in.rigDone && in.rig.consumed < window
		if fed && in.node != nil {
			next = in.node.child(st.chunk, st.final)
		}
		switch {
		case !fed:
			path.rig += rigSkipped
		case next != nil:
			path.rig += rigHit
		default:
			path.rig += rigLive
		}
		replayed := next != nil && next.plane != nil
		if replayed {
			path.plane += planeReplayed
		} else {
			path.plane += planeParsed
		}
		before := calls
		res, err := in.processChunk(st.chunk, st.final, window, &c.stage)
		path.calls = append(path.calls, calls-before)
		if replayed && calls > before {
			t.Errorf("chunk %d: replayed from the memo, yet made %d native calls", i, calls-before)
		}
		if err != nil {
			c.releaseInstance(id)
			o.Chunks = append(o.Chunks, rigChunkObs{Err: true})
			break
		}
		o.Chunks = append(o.Chunks, rigChunkObs{
			Cycles: res.cycles, CPB: in.CyclesPerByte(),
			Out: append([]byte(nil), res.out...), Carry: string(in.carry), Halted: res.halted,
		})
	}
	o.InBytes, o.OutBytes, o.Cycles, o.CPB = in.inBytes, in.outBytes, in.cycles, in.cpb
	comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, id)})
	o.RetVal = comp.Result
	o.Instances, o.PinnedDRAM = c.Instances(), c.PinnedDRAM()
	return o, path
}

// splitSteps cuts text at the given offsets; the last piece is final.
func splitSteps(text []byte, cuts ...int) []rigStep {
	var steps []rigStep
	prev := 0
	for _, c := range append(cuts, len(text)) {
		steps = append(steps, rigStep{chunk: text[prev:c]})
		prev = c
	}
	steps[len(steps)-1].final = true
	return steps
}

// tokenText renders n tokens, ints or floats, a few to a line.
func tokenText(rng *rand.Rand, n int, floats bool) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		if floats {
			b = fmt.Appendf(b, "%.*f", rng.Intn(5), (rng.Float64()-0.5)*1e4)
		} else {
			b = fmt.Appendf(b, "%d", rng.Int63n(1<<31)-1<<30)
		}
		if rng.Intn(4) == 0 {
			b = append(b, '\n')
		} else {
			b = append(b, ' ')
		}
	}
	return b
}

// TestRigMemoMatchesLiveRig streams every memo path — full hits, a shared
// prefix then a miss (the replay path), the same bytes under another
// final flag, other arguments, a rig that halts inside the window and a
// stream shorter than the window — through one controller, and checks
// every chunk bit for bit against a controller without the memo. Every
// chunk the rig reads from the memo also replays its data plane.
func TestRigMemoMatchesLiveRig(t *testing.T) {
	const window = 2048
	mutate := func(cfg *Config) { cfg.SampleWindow = window }
	rng := rand.New(rand.NewSource(1))
	intText := tokenText(rng, 600, false)
	floatText := tokenText(rng, 600, true)
	if len(intText) < 2*window || len(floatText) < 2*window {
		t.Fatalf("texts of %d and %d bytes do not outrun the %d B window", len(intText), len(floatText), window)
	}
	intImg, floatImg := compile(t, byteCountAppSrc), compile(t, floatLimitAppSrc)

	type tc struct {
		name string
		s    rigStream
		// hits: every chunk fed to the rig must hit the memo; replay:
		// the first must hit and a later one miss.
		hits, replay bool
	}
	var cases []tc
	for _, app := range []struct {
		name   string
		img    []byte
		text   []byte
		native NativeFunc
		args   []int64
	}{
		{"int", intImg, intText, intNative(), nil},
		{"float", floatImg, floatText, floatNative(), []int64{1 << 40}},
	} {
		base := rigStream{img: app.img, args: app.args, native: app.native}
		with := func(args []int64, steps []rigStep) rigStream {
			s := base
			if args != nil {
				s.args = args
			}
			s.steps = steps
			return s
		}
		n := len(app.text)
		whole := splitSteps(app.text, 500, 1000, 1500, 2000, 2500, 3000)
		diverged := append([]byte(nil), app.text...)
		copy(diverged[1000:], bytes.Repeat([]byte("7 "), 100))
		short := app.text[:300]
		cases = append(cases,
			tc{name: app.name + "/first", s: with(nil, whole)},
			tc{name: app.name + "/repeat", s: with(nil, whole), hits: true},
			tc{name: app.name + "/repeat-again", s: with(nil, whole), hits: true},
			tc{name: app.name + "/shared-prefix", s: with(nil, splitSteps(diverged, 500, 1000, 1500, 2000, 2500, 3000)), replay: true},
			tc{name: app.name + "/other-split", s: with(nil, splitSteps(app.text, 500, 1000, 1700, n-10))},
			// Same bytes as the first stream's first two chunks, but the
			// second one ends the stream.
			tc{name: app.name + "/final-flag", s: with(nil, splitSteps(app.text[:1000], 500)), replay: true},
			tc{name: app.name + "/final-flag-repeat", s: with(nil, splitSteps(app.text[:1000], 500)), hits: true},
			tc{name: app.name + "/empty-final", s: with(nil, append(splitSteps(app.text[:1000], 500)[:1:1], rigStep{chunk: app.text[500:1000]}, rigStep{final: true})), replay: true},
			tc{name: app.name + "/short", s: with(nil, splitSteps(short, 120))},
			tc{name: app.name + "/short-repeat", s: with(nil, splitSteps(short, 120)), hits: true},
		)
		if app.name == "float" {
			cases = append(cases,
				tc{name: "float/other-args", s: with([]int64{1 << 30}, whole)},
				tc{name: "float/halts-in-window", s: with([]int64{5}, whole)},
				tc{name: "float/halts-in-window-repeat", s: with([]int64{5}, whole), hits: true},
			)
		}
	}

	memo := newController(t, mutate)
	live := withoutRigMemo(newController(t, mutate))
	for _, k := range cases {
		got, path := runRigStream(t, memo, k.s)
		want, _ := runRigStream(t, live, k.s)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got.Chunks), len(want.Chunks)) {
				if !reflect.DeepEqual(got.Chunks[i], want.Chunks[i]) {
					t.Errorf("%s: chunk %d: memo %+v, live %+v", k.name, i, got.Chunks[i], want.Chunks[i])
					break
				}
			}
			t.Fatalf("%s: memo outcome differs from the live rig:\nmemo %+v\nlive %+v", k.name, got, want)
		}
		t.Logf("%s: rig path %s, plane path %s", k.name, path.rig, path.plane)
		fed := strings.Trim(path.rig, rigSkipped)
		switch {
		case k.hits && (fed == "" || strings.Contains(fed, rigLive)):
			t.Errorf("%s: rig path %q, want memo hits only", k.name, path.rig)
		case k.replay && !(strings.HasPrefix(fed, rigHit) && strings.Contains(fed, rigLive)):
			t.Errorf("%s: rig path %q, want memo hits, then a miss", k.name, path.rig)
		}
		for i := range path.rig {
			if (path.rig[i:i+1] == rigHit) != (path.plane[i:i+1] == planeReplayed) {
				t.Errorf("%s: chunk %d: rig path %q, plane path %q: a memo hit must replay the plane", k.name, i, path.rig, path.plane)
			}
		}
	}
}

// TestRigMemoReplaysDataPlane: a chunk whose memo node holds a recorded
// data plane makes no native call and leaves the output and the carried
// partial record a live parse leaves; a replayed prefix that ends inside a
// record hands that record on to a stream that then diverges; repeats do
// not grow the memo; and nothing is recorded past the cap or from a
// native call that failed.
func TestRigMemoReplaysDataPlane(t *testing.T) {
	const window = 4096
	mutate := func(cfg *Config) { cfg.SampleWindow = window }
	text := tokenText(rand.New(rand.NewSource(4)), 1500, false)
	img := compile(t, byteCountAppSrc)
	// cut ends the first chunk one byte into a record.
	cut := bytes.LastIndexByte(text[:1000], '\n') + 2
	diverged := slices.Concat(text[:cut], []byte("5 6\n"), text[cut:])
	first := rigStream{img: img, native: intNative(), steps: splitSteps(text[:3000], cut, 2000)}
	second := rigStream{img: img, native: intNative(), steps: splitSteps(diverged[:3000], cut, 2000)}
	fail := rigStream{img: img, steps: first.steps,
		native: func(dst, chunk []byte, final bool, args []int64) ([]byte, error) {
			if final {
				return nil, errors.New("malformed token")
			}
			return serial.AppendTokens(dst, chunk, serial.FieldInt32)
		}}

	live := withoutRigMemo(newController(t, mutate))
	// run streams s on c and requires the outcome of a controller
	// without the memo, and the given rig and plane paths.
	run := func(t *testing.T, c *Controller, s rigStream, rig, plane string) rigObs {
		t.Helper()
		got, path := runRigStream(t, c, s)
		want, _ := runRigStream(t, live, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("memo %+v\nlive %+v", got, want)
		}
		if path.rig != rig || path.plane != plane {
			t.Fatalf("rig path %q, plane path %q; want %q, %q", path.rig, path.plane, rig, plane)
		}
		return got
	}

	t.Run("repeat", func(t *testing.T) {
		c := newController(t, mutate)
		o := run(t, c, first, "lll", "ppp")
		if o.Chunks[0].Carry == "" {
			t.Fatalf("the first chunk ends on a record boundary; cut %d", cut)
		}
		held := c.memo.bytes
		for range 2 {
			run(t, c, first, "hhh", "rrr")
			if c.memo.bytes != held {
				t.Fatalf("a repeated stream grew the memo from %d to %d bytes", held, c.memo.bytes)
			}
		}
	})
	t.Run("split-record-divergence", func(t *testing.T) {
		c := newController(t, mutate)
		run(t, c, first, "lll", "ppp")
		run(t, c, second, "hll", "rpp")
	})
	t.Run("cap", func(t *testing.T) {
		c := newController(t, mutate)
		run(t, c, first, "lll", "ppp")
		// No room for a node: the stream leaves the trie after its
		// shared chunk and parses from there on.
		c.memo.bytes = rigMemoCap
		run(t, c, second, "hll", "rpp")
		if c.memo.bytes != rigMemoCap {
			t.Fatalf("the memo grew past its cap to %d bytes", c.memo.bytes)
		}
		// Room for the second chunk's node but not for its plane.
		c.memo.bytes = rigMemoCap - int64(len(second.steps[1].chunk))
		run(t, c, second, "hll", "rpp")
		if c.memo.bytes != rigMemoCap {
			t.Fatalf("memo holds %d bytes, want the %d of its cap", c.memo.bytes, rigMemoCap)
		}
		run(t, c, second, "hhl", "rpp")
	})
	t.Run("native-error", func(t *testing.T) {
		c := newController(t, mutate)
		run(t, c, fail, "lll", "ppp")
		held := c.memo.bytes
		o := run(t, c, fail, "hhh", "rrp")
		if !o.Chunks[2].Err {
			t.Fatalf("the final chunk did not fail: %+v", o.Chunks[2])
		}
		if c.memo.bytes != held {
			t.Fatalf("a failed stream grew the memo from %d to %d bytes", held, c.memo.bytes)
		}
	})
}

// TestRigMemoTrapsRunLive: on a controller whose memo already holds the
// stream's prefix, a D-SRAM overflow and a step-limit trap still surface
// as StatusAppFault through MREAD, release the slot and its DRAM, and
// leave the memo serving the warm stream exactly as before.
func TestRigMemoTrapsRunLive(t *testing.T) {
	text := tokenText(rand.New(rand.NewSource(2)), 4000, false)[:4*nvme.LBASize]
	img := compile(t, byteCountAppSrc)
	prog := new(mvm.Program)
	if err := prog.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	// steps the app takes over the first two LBAs as a whole stream.
	vm, err := mvm.New(prog, mvm.DefaultConfig(), mvm.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Feed(text[:2*nvme.LBASize], true); err != nil {
		t.Fatal(err)
	}
	for st := vm.Run(); st != mvm.StateHalted; st = vm.Run() {
		if st == mvm.StateTrapped {
			t.Fatal(vm.TrapErr())
		}
		vm.DiscardOutput()
	}
	twoLBASteps := vm.Steps()

	type mread struct {
		slba  uint64
		nlb   uint32
		final bool
	}
	warm := []mread{{0, 1, false}, {1, 1, true}}
	for _, tc := range []struct {
		name   string
		mutate func(*mvm.Config)
		stream []mread
	}{
		// 6 KiB of D-SRAM holds a one-LBA window, not a two-LBA one.
		{"dsram-overflow", func(v *mvm.Config) {
			v.DSRAMSize = 6 << 10
			v.OutputFlushThreshold = 512
		}, []mread{{0, 1, false}, {1, 2, false}, {3, 1, true}}},
		// The warm stream fits the step limit; four LBAs do not.
		{"step-limit", func(v *mvm.Config) {
			v.MaxSteps = twoLBASteps + twoLBASteps/4
		}, []mread{{0, 1, false}, {1, 1, false}, {2, 1, false}, {3, 1, true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(c *Controller, stream []mread) (nvme.Status, []byte, uint32) {
				t.Helper()
				comp, _ := c.Submit(0, &CmdContext{
					Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), 3, 0, 0), Code: img, Native: intNative(),
				})
				if comp.Status != nvme.StatusSuccess {
					t.Fatalf("MINIT status %v", comp.Status)
				}
				var out []byte
				for _, r := range stream {
					comp, _ = c.Submit(0, &CmdContext{
						Cmd:       nvme.BuildMRead(0, r.slba, r.nlb, 3, 0),
						LastChunk: r.final,
						Sink:      func(p []byte) { out = append(out, p...) },
					})
					if comp.Status != nvme.StatusSuccess {
						if c.Instances() != 0 || c.PinnedDRAM() != 0 {
							t.Fatalf("after %v: %d instances, %v pinned DRAM", comp.Status, c.Instances(), c.PinnedDRAM())
						}
						return comp.Status, out, 0
					}
				}
				comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, 3)})
				return comp.Status, out, comp.Result
			}
			mutate := func(cfg *Config) {
				cfg.SampleWindow = 64 * units.KiB
				tc.mutate(&cfg.VM)
			}
			memo := newController(t, mutate)
			live := withoutRigMemo(newController(t, mutate))
			for _, c := range []*Controller{memo, live} {
				if _, _, err := c.LoadFile(0, text); err != nil {
					t.Fatal(err)
				}
			}
			st0, out0, ret0 := run(memo, warm)
			if st0 != nvme.StatusSuccess {
				t.Fatalf("warm stream: %v", st0)
			}
			for _, c := range []*Controller{memo, live} {
				if st, _, _ := run(c, tc.stream); st != nvme.StatusAppFault {
					t.Fatalf("memo=%v: trapping stream returned %v, want %v", c.memo != nil, st, nvme.StatusAppFault)
				}
			}
			st1, out1, ret1 := run(memo, warm)
			st2, out2, ret2 := run(live, warm)
			if st1 != st0 || st2 != st0 || !bytes.Equal(out1, out0) || !bytes.Equal(out2, out0) || ret1 != ret0 || ret2 != ret0 {
				t.Fatalf("warm stream after the trap: %v/%v/%v, %d/%d/%d bytes, ret %d/%d/%d",
					st0, st1, st2, len(out0), len(out1), len(out2), ret0, ret1, ret2)
			}
		})
	}
}

// TestMWriteCatchesUpBehindRig: an MWRITE on a sampled instance whose
// memoized rig is behind the stream replays the memo path, then runs the
// command on the caught-up VM; status, written bytes, flash contents and
// every later chunk match a controller without the memo.
func TestMWriteCatchesUpBehindRig(t *testing.T) {
	text := tokenText(rand.New(rand.NewSource(3)), 800, false)
	img := compile(t, byteCountAppSrc)
	steps := splitSteps(text[:1500], 500, 1000)
	steps[len(steps)-1].final = false
	tail := rigStep{chunk: text[1500:], final: true}
	const dstLBA = 64

	type obs struct {
		Status   nvme.Status
		Written  []byte
		Flash    []byte
		Tail     rigChunkObs
		RetVal   uint32
		OutBytes int64
	}
	run := func(c *Controller, final bool) (obs, bool) {
		t.Helper()
		const id = 5
		c.Submit(0, &CmdContext{Cmd: nvme.BuildMInit(0, 0, uint32(len(img)), id, 0, 0), Code: img, Native: intNative()})
		in := c.instances[id]
		for _, s := range steps {
			if _, err := in.processChunk(s.chunk, s.final, int64(c.cfg.SampleWindow), &c.stage); err != nil {
				t.Fatal(err)
			}
		}
		behind := in.vm == nil
		var o obs
		comp, _ := c.Submit(0, &CmdContext{
			Cmd:       nvme.BuildMWrite(0, dstLBA, 1, id, 0),
			Data:      []byte("11 22 33\n"),
			LastChunk: final,
			Sink:      func(p []byte) { o.Written = append(o.Written, p...) },
		})
		o.Status = comp.Status
		if !final {
			res, err := in.processChunk(tail.chunk, tail.final, int64(c.cfg.SampleWindow), &c.stage)
			if err != nil {
				t.Fatal(err)
			}
			o.Tail = rigChunkObs{Cycles: res.cycles, CPB: in.CyclesPerByte(), Out: append([]byte(nil), res.out...), Halted: res.halted}
		}
		o.OutBytes = in.outBytes
		comp, _ = c.Submit(0, &CmdContext{Cmd: nvme.BuildMDeinit(0, id)})
		o.RetVal = comp.Result
		c.Submit(0, &CmdContext{
			Cmd:  nvme.BuildRead(0, dstLBA, 1, 0),
			Sink: func(p []byte) { o.Flash = append(o.Flash, p...) },
		})
		return o, behind
	}
	for _, final := range []bool{true, false} {
		memo := newController(t, nil)
		live := withoutRigMemo(newController(t, nil))
		run(memo, final) // warm the memo
		got, behind := run(memo, final)
		want, _ := run(live, final)
		if !behind {
			t.Fatalf("final=%v: the rig was not behind the stream before MWRITE", final)
		}
		// Without the final flag the app has not flushed its output yet.
		if got.Status != nvme.StatusSuccess || final && len(got.Written) == 0 {
			t.Fatalf("final=%v: MWRITE status %v, %d bytes written", final, got.Status, len(got.Written))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("final=%v: memo %+v\nlive %+v", final, got, want)
		}
	}
}

// FuzzRigMemo streams random int or float token text in two random chunk
// splits, each twice, through a controller with the memo and one without,
// and requires every chunk's outcome to match bit for bit. The second pass
// of each split makes no native call for a chunk inside the window.
func FuzzRigMemo(f *testing.F) {
	f.Add(int64(1), uint8(40), false, uint16(300), uint16(97))
	f.Add(int64(2), uint8(200), true, uint16(1000), uint16(64))
	f.Add(int64(3), uint8(5), true, uint16(7), uint16(3))
	intImg, floatImg := compile(f, byteCountAppSrc), compile(f, floatLimitAppSrc)
	f.Fuzz(func(t *testing.T, seed int64, tokens uint8, floats bool, window, maxChunk uint16) {
		rng := rand.New(rand.NewSource(seed))
		text := tokenText(rng, int(tokens), floats)
		split := func() []rigStep {
			var cuts []int
			for off := 0; ; {
				off += 1 + rng.Intn(int(maxChunk)%2048+1)
				if off >= len(text) {
					break
				}
				cuts = append(cuts, off)
			}
			return splitSteps(text, cuts...)
		}
		s := rigStream{img: intImg, native: intNative()}
		if floats {
			s = rigStream{img: floatImg, native: floatNative(), args: []int64{int64(rng.Intn(int(tokens) + 2))}}
		}
		a, b := split(), split()
		mutate := func(cfg *Config) { cfg.SampleWindow = units.Bytes(window) + 1 }
		memo := newController(t, mutate)
		live := withoutRigMemo(newController(t, mutate))
		for i, steps := range [][]rigStep{a, b, a, b} {
			s.steps = steps
			got, path := runRigStream(t, memo, s)
			want, _ := runRigStream(t, live, s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d: memo %+v\nlive %+v", i, got, want)
			}
			for j, n := range path.calls {
				if i >= 2 && path.rig[j:j+1] != rigSkipped && !got.Chunks[j].Err && n > 0 {
					t.Fatalf("run %d: chunk %d inside the window made %d native calls (rig path %q, plane path %q)", i, j, n, path.rig, path.plane)
				}
			}
		}
	})
}
