package ssd

import (
	"slices"

	"morpheus/internal/mvm"
)

// rigMemoCap bounds the bytes a controller's rig memo holds: code images,
// argument vectors, the chunk bytes its trie edges are keyed by and the
// data-plane results recorded on them. Once it is reached nothing new is
// inserted or recorded; streams that leave the trie run live, and chunks
// without a recorded result are parsed.
const rigMemoCap = 16 << 20

// rigMemo memoizes the sampled-execution timing rig per controller
// (DESIGN.md §1). The rig's view after a chunk — cycles, consumed bytes,
// run state — is a pure function of the code image, the argument vector
// and the exact sequence of (chunk, final) fed so far, because the MVM is
// deterministic and cfg.VM, cfg.Cost and the sample window are constants
// of the controller. The memo is a trie over that sequence: a stream that
// follows a path another stream already interpreted reads the recorded
// views instead of running the VM. Only completed transitions (NeedInput
// or Halted) are stored; a chunk that traps always runs live.
//
// Each edge also records its data-plane result once (rigPlane): the native
// parser's output for the chunk and the carried partial record after it.
// Both are a pure function of the same path, because a NativeFunc is a
// pure function of its chunk, final flag and arguments, equivalent to the
// code image. So a stream that reaches a recorded node inside the sample
// window skips the parse as well as the VM.
//
// The memo is host-side only: nothing the model reports depends on
// whether a view or an output came from the trie or was computed live.
type rigMemo struct {
	progs map[string]*rigProg // by exact code image
	bytes int64               // code, argument, edge chunk and plane bytes held
}

// rigProg is one code image: its decoded Program, shared by every VM the
// controller builds for it, and one trie root per distinct argument
// vector.
type rigProg struct {
	prog  *mvm.Program
	roots []*rigNode
}

// rigView is what the firmware reads of the timing rig.
type rigView struct {
	cycles   float64
	consumed int64
	state    mvm.State
}

// rigPlane is the data plane's result for one edge: the native output for
// the chunk and the instance's carry after it.
type rigPlane struct {
	out, carry []byte
}

// rigNode is the rig after the chunks on the path from its root. Roots
// carry the argument vector; other nodes the chunk and final flag of the
// edge that leads to them, the rig's view after it and, once a stream has
// parsed the chunk live here, the edge's data-plane result (nil before).
type rigNode struct {
	args   []int64
	parent *rigNode
	chunk  string
	final  bool
	view   rigView
	plane  *rigPlane
	// next holds the children, keyed by the exact chunk bytes, in two
	// maps by the final flag. m[string(b)] lookups do not allocate, and
	// keys compare full bytes, so two streams share a node only if they
	// fed identical bytes.
	next [2]map[string]*rigNode
}

func newRigMemo() *rigMemo { return &rigMemo{progs: make(map[string]*rigProg)} }

// program returns the decoded image, from the memo when it holds it. The
// bool reports whether the result is memoized, so rigs may use its trie.
// Only an image mvm.New accepts is memoized, so a lazily built VM never
// fails; one it rejects is returned unmemoized, for newInstance to fail
// on as before.
func (m *rigMemo) program(code []byte, cfg mvm.Config, cost mvm.CostModel) (*rigProg, bool, error) {
	if m != nil {
		if p, ok := m.progs[string(code)]; ok {
			return p, true, nil
		}
	}
	prog := new(mvm.Program)
	if err := prog.UnmarshalBinary(code); err != nil {
		return nil, false, err
	}
	p := &rigProg{prog: prog}
	if m == nil || m.bytes+int64(len(code)) > rigMemoCap {
		return p, false, nil
	}
	if _, err := mvm.New(prog, cfg, cost); err != nil {
		return p, false, nil
	}
	m.progs[string(code)] = p
	m.bytes += int64(len(code))
	return p, true, nil
}

// root returns the trie root for args, adding it when the cap allows; nil
// means the stream's rig runs live.
func (m *rigMemo) root(p *rigProg, args []int64) *rigNode {
	for _, r := range p.roots {
		if slices.Equal(r.args, args) {
			return r
		}
	}
	size := 8 * int64(len(args))
	if m.bytes+size > rigMemoCap {
		return nil
	}
	r := &rigNode{args: slices.Clone(args)}
	p.roots = append(p.roots, r)
	m.bytes += size
	return r
}

func finalIdx(final bool) int {
	if final {
		return 1
	}
	return 0
}

// child returns the node chunk leads to from n, or nil.
func (n *rigNode) child(chunk []byte, final bool) *rigNode {
	return n.next[finalIdx(final)][string(chunk)]
}

// insert records the view the rig reached by running chunk live from n;
// nil means the cap is reached and nothing was stored.
func (m *rigMemo) insert(n *rigNode, chunk []byte, final bool, v rigView) *rigNode {
	if m.bytes+int64(len(chunk)) > rigMemoCap {
		return nil
	}
	i := finalIdx(final)
	if n.next[i] == nil {
		n.next[i] = make(map[string]*rigNode)
	}
	key := string(chunk)
	c := &rigNode{parent: n, chunk: key, final: final, view: v}
	n.next[i][key] = c
	m.bytes += int64(len(chunk))
	return c
}

// record stores the data-plane result a stream computed live for the edge
// into n, which has none, unless the cap is reached. out and carry are
// cloned: both live in buffers the next chunk overwrites.
func (m *rigMemo) record(n *rigNode, out, carry []byte) {
	size := int64(len(out) + len(carry))
	if m.bytes+size > rigMemoCap {
		return
	}
	n.plane = &rigPlane{out: slices.Clone(out), carry: slices.Clone(carry)}
	m.bytes += size
}
