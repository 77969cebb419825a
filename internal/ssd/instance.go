package ssd

import (
	"fmt"

	"morpheus/internal/mvm"
	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// NativeFunc is the native-parser equivalent of a StorageApp, used by the
// sampled-execution mode for the data plane. It receives a record-aligned
// (newline-terminated) chunk of the input stream (final==true for the last
// one, which may lack a trailing newline), appends the output bytes the
// StorageApp would have emitted for it to dst and returns the extended
// slice. An error means the StorageApp would have trapped; the controller
// then reaps the instance. The chunk is borrowed: it is read-only and only
// valid until the call returns. dst is a controller-owned buffer shared by
// all instances, so the function must not keep it either.
//
// A NativeFunc must be a pure function of (chunk, final, args), equivalent
// to the code image it is shipped with: the object cache and the rig memo
// replay a chunk's recorded output instead of calling it again, and skip
// calls mid-stream. Correctness tests assert NativeFunc ≡ the interpreted
// StorageApp on whole inputs.
type NativeFunc func(dst, chunk []byte, final bool, args []int64) ([]byte, error)

// instance is one StorageApp execution (one MINIT..MDEINIT lifetime),
// pinned to an embedded core by its instance ID.
//
// Execution modes (DESIGN.md §1 "sampled execution"):
//
//   - exact (native == nil or sampling disabled): the MVM interprets the
//     whole stream; its outputs are the data plane and its cycle counter
//     is the timing plane.
//   - sampled: the MVM interprets only the first SampleWindow bytes as a
//     timing rig (outputs discarded); the data plane comes entirely from
//     the native continuation, and every chunk is charged the measured
//     cycles/byte. This keeps multi-gigabyte streams affordable while
//     preserving the app-specific cost (integer vs softfloat token mix).
type instance struct {
	id      uint32
	coreIdx int
	prog    *mvm.Program
	vmCfg   mvm.Config
	vmCost  mvm.CostModel
	args    []int64
	native  NativeFunc
	sampled bool // sampled mode active (native != nil && cfg.SampledExecution)

	// vm is the data plane in exact mode and the timing rig in sampled
	// mode. A memoized rig (rigmemo.go) builds it only on its first memo
	// miss, so it may be nil, or behind the stream, while the rig is live.
	vm *mvm.VM
	// rig is the timing rig's view, filled by the live VM or by the memo
	// node the stream has reached; sampled mode reads only this.
	rig rigView
	// rigDone: the rig halted, or a cached terminal chunk was replayed;
	// the VM is abandoned and cpb frozen.
	rigDone bool
	// memo, node and vmAt place a memoized rig: node is where the stream
	// is in the trie, vmAt where the VM is (nil: no VM yet). node is nil
	// once the rig runs live for good.
	memo *rigMemo
	node *rigNode
	vmAt *rigNode

	cpb      float64 // measured cycles per input byte
	carry    []byte  // partial trailing record for the native parser, reused in place
	finished bool
	retVal   int64

	inBytes  int64
	outBytes int64
	cycles   float64

	// lastVMEnd orders chunk execution slots on the pinned core.
	lastVMEnd units.Time

	// Object-cache stream identity (cache.go): appHash covers code, args,
	// mode, and sample window; streamHash rolls over every chunk range the
	// instance has consumed; extents is the consumed-range list entries
	// copy as their invalidation set.
	appHash    uint64
	streamHash uint64
	extents    []extent
}

// newInstance builds an instance. A sampled instance given a memo root
// starts its timing rig on the memo and builds no VM yet; otherwise the
// VM is built now.
func newInstance(id uint32, coreIdx int, prog *mvm.Program, args []int64, native NativeFunc, sampled bool, cfg mvm.Config, cost mvm.CostModel, memo *rigMemo, root *rigNode) (*instance, error) {
	in := &instance{
		id:      id,
		coreIdx: coreIdx,
		prog:    prog,
		vmCfg:   cfg,
		vmCost:  cost,
		args:    args,
		native:  native,
		sampled: sampled && native != nil,
	}
	if in.sampled && root != nil {
		in.memo, in.node = memo, root
		return in, nil
	}
	if err := in.newVM(); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *instance) newVM() error {
	vm, err := mvm.New(in.prog, in.vmCfg, in.vmCost)
	if err != nil {
		return err
	}
	vm.SetArgs(in.args)
	in.vm = vm
	return nil
}

func viewOf(vm *mvm.VM) rigView {
	return rigView{cycles: vm.Cycles(), consumed: vm.Consumed(), state: vm.State()}
}

// chunkResult is the outcome of processing one MREAD chunk.
type chunkResult struct {
	out    []byte  // object bytes to DMA to the destination
	cycles float64 // embedded-core cycles charged
	halted bool
}

// stagingBufs is a controller's data-plane scratch, shared by all its
// instances. A controller runs on one goroutine and no buffer outlives the
// command that fills it, so one set serves every instance: chunk holds the
// MREAD's pages, aligned joins an instance's carried partial record with
// the chunk, and out receives the native parser's objects, or a copy of
// the rig memo's recorded ones (the bytes the command's Sink borrows).
type stagingBufs struct {
	chunk, aligned, out []byte
}

// processChunk runs the StorageApp over one stream chunk. In sampled mode
// the returned out aliases st.out.
func (in *instance) processChunk(chunk []byte, final bool, sampleWindow int64, st *stagingBufs) (chunkResult, error) {
	if in.finished {
		return chunkResult{}, fmt.Errorf("ssd: instance %d already finished its stream", in.id)
	}
	in.inBytes += int64(len(chunk))
	if !in.sampled {
		res, err := in.interpretChunk(chunk, final, true)
		if err == nil {
			in.cycles += res.cycles
			in.outBytes += int64(len(res.out))
			if res.halted {
				in.finished = true
				in.retVal = in.vm.ReturnValue()
			}
		}
		return res, err
	}
	// Sampled mode: keep the timing rig running over the sample window.
	// node is the memo node this chunk led to, taken before updateCPB,
	// which drops it when the rig halts.
	var node *rigNode
	if !in.rigDone && in.rig.consumed < sampleWindow {
		if err := in.advanceRig(chunk, final); err != nil {
			return chunkResult{}, err
		}
		node = in.node
	}
	in.updateCPB()
	cyc := in.cpb * float64(len(chunk))
	out := st.out[:0]
	if node != nil && node.plane != nil {
		// A recorded data plane: copy it into staging, so the Sink
		// borrows controller memory and never the memo's.
		out = append(out, node.plane.out...)
		in.carry = append(in.carry[:0], node.plane.carry...)
	} else {
		aligned := serial.AlignRecords(&in.carry, &st.aligned, chunk, final)
		if len(aligned) > 0 || final {
			var err error
			if out, err = in.native(out, aligned, final, in.args); err != nil {
				return chunkResult{}, fmt.Errorf("ssd: StorageApp %q native data plane: %w", in.prog.Name, err)
			}
		}
		if node != nil {
			in.memo.record(node, out, in.carry)
		}
	}
	st.out = out
	in.cycles += cyc
	in.outBytes += int64(len(out))
	if final {
		in.finished = true
		// Sampled-mode MDEINIT result: total object bytes produced (the
		// exact app-defined value lives inside the abandoned timing rig).
		in.retVal = in.outBytes
	}
	return chunkResult{out: out, cycles: cyc, halted: final}, nil
}

func (in *instance) updateCPB() {
	if in.rigDone {
		return
	}
	if c := in.rig.consumed; c > 0 {
		in.cpb = in.rig.cycles / float64(c)
	} else if in.cpb == 0 {
		in.cpb = 2.0 // degenerate default before any token is consumed
	}
	if st := in.rig.state; st == mvm.StateHalted || st == mvm.StateTrapped {
		in.stopRig() // freeze cpb
	}
}

// stopRig abandons the VM for good: later chunks are never fed to it.
func (in *instance) stopRig() {
	in.rigDone = true
	in.vm, in.node, in.vmAt = nil, nil, nil
}

// advanceRig feeds one chunk to the timing rig. On a memo hit it only
// moves to the recorded node, leaving the VM behind; on a miss it brings
// the VM up to the stream, runs the chunk live and records the outcome.
// A trap is returned, never recorded.
func (in *instance) advanceRig(chunk []byte, final bool) error {
	if in.node != nil {
		if n := in.node.child(chunk, final); n != nil {
			in.node, in.rig = n, n.view
			return nil
		}
		if err := in.catchUp(); err != nil {
			return err
		}
	}
	if _, err := in.interpretChunk(chunk, final, false); err != nil {
		return err
	}
	in.rig = viewOf(in.vm)
	if in.node != nil {
		// A nil node (memo full) leaves the rig live for good.
		in.node = in.memo.insert(in.node, chunk, final, in.rig)
		in.vmAt = in.node
	}
	return nil
}

// catchUp brings a memoized rig's VM to the node the stream has reached:
// it builds the VM if there is none and re-feeds the chunks on the path
// from where the VM stands. That is at most the sample window plus one
// chunk, and every re-fed chunk completed before, so the deterministic VM
// reaches exactly the recorded view.
func (in *instance) catchUp() error {
	if in.node == nil || in.vmAt == in.node {
		return nil
	}
	if in.vm == nil {
		if err := in.newVM(); err != nil {
			return err
		}
	}
	var path []*rigNode
	for n := in.node; n != in.vmAt && n.parent != nil; n = n.parent {
		path = append(path, n)
	}
	for i := len(path) - 1; i >= 0; i-- {
		if _, err := in.interpretChunk([]byte(path[i].chunk), path[i].final, false); err != nil {
			return err
		}
	}
	in.vmAt = in.node
	return nil
}

// interpretChunk feeds the VM one chunk and runs it to quiescence. With
// keep it drains outputs as they fill and returns them; without keep (the
// timing rig) it discards them in place, so a paused rig costs no
// allocation. It does not update instance accounting; callers decide
// whether the VM is the data plane or just the timing rig.
func (in *instance) interpretChunk(chunk []byte, final, keep bool) (chunkResult, error) {
	startCycles := in.vm.Cycles()
	if err := in.vm.Feed(chunk, final); err != nil {
		return chunkResult{}, err
	}
	var out []byte
	drain := func() {
		if keep {
			out = append(out, in.vm.DrainOutput()...)
		} else {
			in.vm.DiscardOutput()
		}
	}
	for {
		switch st := in.vm.Run(); st {
		case mvm.StateNeedInput:
			return chunkResult{out: out, cycles: in.vm.Cycles() - startCycles}, nil
		case mvm.StateOutputFull, mvm.StateFlushRequested:
			drain()
		case mvm.StateHalted:
			drain()
			return chunkResult{out: out, cycles: in.vm.Cycles() - startCycles, halted: true}, nil
		case mvm.StateTrapped:
			return chunkResult{}, fmt.Errorf("ssd: StorageApp %q trapped: %w", in.prog.Name, in.vm.TrapErr())
		default:
			return chunkResult{}, fmt.Errorf("ssd: unexpected VM state %v", st)
		}
	}
}

// cacheReplayable reports whether the next chunk's state transition can be
// replayed from a cache entry without running the VM — the condition both
// for storing an entry (evaluated before processing) and for applying a
// hit. Skipping VM execution is only safe when the VM's internal state can
// no longer influence later observable behavior:
//
//   - a final chunk is terminal: afterwards only scalar state (finished,
//     retVal, cpb, byte counts) is ever read;
//   - in sampled mode, once the timing rig has consumed the sample window
//     it is never fed again, so mid-stream chunks only evolve the carry
//     and the counters — all recorded in the entry;
//   - in exact mode the VM is the data plane, so mid-stream chunks are
//     never replayable.
func (in *instance) cacheReplayable(final bool, sampleWindow int64) bool {
	if in.finished {
		return false
	}
	if final {
		return true
	}
	if in.sampled {
		return in.rigDone || in.rig.consumed >= sampleWindow
	}
	return false
}

// applyCache replays a recorded chunk transition onto the instance. The
// entry's watermarks are absolute: the key's prefix hash guarantees the
// hitting instance is at the identical pre-chunk state the recording
// instance was.
func (in *instance) applyCache(e *cacheEntry) {
	in.inBytes = e.inBytes
	in.outBytes = e.outBytes
	in.cycles = e.cycles
	in.cpb = e.cpb
	in.carry = append(in.carry[:0], e.carry...)
	in.retVal = e.retVal
	if e.finished {
		in.finished = true
		// Terminal chunk: the rig (or data-plane VM) would have been
		// abandoned; only scalars are read from here on.
		in.stopRig()
	}
	in.extents = append(in.extents[:0], e.extents...)
}

// CyclesPerByte reports the instance's measured cycle rate.
func (in *instance) CyclesPerByte() float64 {
	if in.sampled {
		in.updateCPB()
		return in.cpb
	}
	if c := in.inBytes; c > 0 {
		return in.cycles / float64(c)
	}
	return 0
}
