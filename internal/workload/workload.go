// Package workload generates the benchmark inputs of Table I: graph edge
// lists (PageRank, BFS), dictionary-encoded text (Grep, WordCount), dense
// matrices (Gaussian, LUD), point sets (Kmeans, NN), unsorted arrays
// (HybridSort), and sparse-matrix triples (SpMV). All generators are
// deterministic under a seed and emit text shards — one shard per I/O
// thread, mirroring how MPI and mapreduce-style inputs are stored — whose
// records are newline-terminated lines of whitespace-separated tokens.
//
// Following the paper's §VI-B selection criteria, inputs "mainly consist
// of integers" (the Tensilica cores have no FPU); only the SpMV input
// carries floating-point text, which is exactly what makes its Morpheus
// speedup collapse in Figure 8.
package workload

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"morpheus/internal/serial"
	"morpheus/internal/units"
)

// Shards is a sharded text input: one byte slice per I/O thread.
type Shards [][]byte

// TotalSize returns the summed shard size.
func (s Shards) TotalSize() units.Bytes {
	var n units.Bytes
	for _, sh := range s {
		n += units.Bytes(len(sh))
	}
	return n
}

// splitCounts divides n items into k nearly-equal counts.
func splitCounts(n int64, k int) []int64 {
	if k <= 0 {
		k = 1
	}
	out := make([]int64, k)
	base := n / int64(k)
	rem := n % int64(k)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// genShards builds one shard per count with gen, on a bounded pool of
// min(len(counts), GOMAXPROCS) workers: the caller plus at most
// GOMAXPROCS-1 goroutines, however many shards there are. Each shard is
// seeded independently, so the bytes do not depend on the schedule.
func genShards(counts []int64, gen func(s int, cnt int64) []byte) Shards {
	out := make(Shards, len(counts))
	var next atomic.Int64
	work := func() {
		for s := int(next.Add(1) - 1); s < len(counts); s = int(next.Add(1) - 1) {
			out[s] = gen(s, counts[s])
		}
	}
	var wg sync.WaitGroup
	for range min(len(counts), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// textWidth is the longest decimal text (sign included) of any integer
// in [lo, hi], so a buffer reserved with it never regrows.
func textWidth(lo, hi int64) int64 {
	return int64(max(len(strconv.FormatInt(lo, 10)), len(strconv.FormatInt(hi, 10))))
}

// IDBase offsets every generated identifier so tokens have the uniform
// 8-digit width of web-scale datasets (node ids, dictionary ids), keeping
// the text-to-binary ratio representative independent of -scale.
const IDBase = 10_000_000

// EdgeList generates a power-law-ish directed graph edge list of m edges
// over n nodes (an RMAT-flavoured sampler), as "u v" lines — the PageRank
// and BFS input shape.
func EdgeList(n int64, m int64, shards int, seed int64) Shards {
	line := 2*textWidth(IDBase, IDBase+max(n-1, 0)) + 2
	return genShards(splitCounts(m, shards), func(s int, cnt int64) []byte {
		rng := newSource(seed + int64(s)*7919)
		buf := make([]byte, 0, cnt*line)
		for i := int64(0); i < cnt; i++ {
			u := rmatNode(rng, n) + IDBase
			v := rmatNode(rng, n) + IDBase
			buf = serial.AppendIntText(buf, u, ' ')
			buf = serial.AppendIntText(buf, v, '\n')
		}
		return buf
	})
}

// RMAT thresholds on a raw Int63 draw x. float64(x)/(1<<63) < 0.76 holds
// exactly when x < rmatUpper, and the division rounds up to 1 — so
// Float64 redraws — exactly when x >= rmatRedraw (2^63 - 512).
// TestRMATThresholds checks both against the float comparison.
const (
	rmatUpper  = 7009762748009629184
	rmatRedraw = 1<<63 - 512
)

// rmatNode samples a node id with recursive quadrant probabilities
// (a=0.57, b=0.19, c=0.19, d=0.05), the Graph500/RMAT skew: each level
// takes the upper half with probability a+b = 0.76. It draws the same
// stream as a Float64() < 0.76 test, but compares integers and picks the
// half with a mask, because the 76/24 branch mispredicts.
func rmatNode(rng *source, n int64) int64 {
	lo, hi := int64(0), n
	for hi-lo > 1 {
		x := rng.Int63()
		if x >= rmatRedraw {
			continue // Float64 would redraw: same level, next draw
		}
		mid := int64(uint64(lo+hi) >> 1) // (lo+hi)/2 for lo+hi >= 0
		upper := (x - rmatUpper) >> 63   // all ones when x < rmatUpper
		hi = mid&upper | hi&^upper
		lo = lo&upper | mid&^upper
	}
	return lo
}

// IntArray generates m uniform integers in [0, max) as text, perLine per
// line — the HybridSort input and the generic "ASCII integers" microbench.
// perLine <= 0 defaults to 8.
func IntArray(m int64, max int64, perLine int, shards int, seed int64) Shards {
	if perLine <= 0 {
		perLine = 8
	}
	width := textWidth(0, max-1) + 1
	return genShards(splitCounts(m, shards), func(s int, cnt int64) []byte {
		rng := newSource(seed + int64(s)*104729)
		buf := make([]byte, 0, cnt*width)
		for i := int64(0); i < cnt; i++ {
			sep := byte(' ')
			if (i+1)%int64(perLine) == 0 || i == cnt-1 {
				sep = '\n'
			}
			buf = serial.AppendIntText(buf, rng.Int63n(max), sep)
		}
		return buf
	})
}

// DictionaryText generates word-id streams with a Zipfian distribution
// over a vocabulary of v words, one "document" of docLen ids per line —
// the Grep and WordCount input (dictionary-encoded, keeping the token
// stream integral per the paper's selection criteria).
func DictionaryText(tokens int64, vocab int64, docLen int, shards int, seed int64) Shards {
	if docLen <= 0 {
		docLen = 16
	}
	width := textWidth(IDBase-1, IDBase+vocab-1) + 1
	return genShards(splitCounts(tokens, shards), func(s int, cnt int64) []byte {
		rng := newSource(seed + int64(s)*1299709)
		buf := make([]byte, 0, cnt*width)
		for i := int64(0); i < cnt; i++ {
			id := zipf(rng, vocab) + IDBase
			sep := byte(' ')
			if (i+1)%int64(docLen) == 0 || i == cnt-1 {
				sep = '\n'
			}
			buf = serial.AppendIntText(buf, id, sep)
		}
		return buf
	})
}

func zipf(rng *source, n int64) int64 {
	// Approximate Zipf(s≈1) via inverse-power sampling.
	u := rng.Float64()
	v := int64(float64(n) * u * u * u)
	if v >= n {
		v = n - 1
	}
	return v
}

// DenseMatrix generates an r x c matrix of integer coefficients in
// [-bound, bound], one row per line — the Gaussian and LUD inputs.
func DenseMatrix(r, c int64, bound int64, shards int, seed int64) Shards {
	width := textWidth(-bound, bound) + 1
	return genShards(splitCounts(r, shards), func(s int, rows int64) []byte {
		rng := newSource(seed + int64(s)*15485863)
		buf := make([]byte, 0, rows*c*width)
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < c; j++ {
				sep := byte(' ')
				if j == c-1 {
					sep = '\n'
				}
				buf = serial.AppendIntText(buf, rng.Int63n(2*bound+1)-bound, sep)
			}
		}
		return buf
	})
}

// Points generates m points of dim integer features, one point per line —
// the Kmeans and NN inputs.
func Points(m int64, dim int, bound int64, shards int, seed int64) Shards {
	width := textWidth(-bound, bound) + 1
	return genShards(splitCounts(m, shards), func(s int, cnt int64) []byte {
		rng := newSource(seed + int64(s)*32452843)
		buf := make([]byte, 0, cnt*int64(dim)*width)
		for i := int64(0); i < cnt; i++ {
			for d := 0; d < dim; d++ {
				sep := byte(' ')
				if d == dim-1 {
					sep = '\n'
				}
				buf = serial.AppendIntText(buf, rng.Int63n(2*bound+1)-bound, sep)
			}
		}
		return buf
	})
}

// maxUnitFloatText is the longest 6-significant-digit 'g' text of a value
// in [-1, 1) drawn as Float64()*2-1, e.g. "-1.11022e-16": the smallest
// nonzero magnitude is 2^-53, so the exponent keeps two digits.
const maxUnitFloatText = 12

// SparseTriples generates nnz sparse-matrix entries as "row col value"
// lines where value is floating-point text — the SpMV input, whose float
// tokens ("33% of the strings") software-emulated FP makes expensive on
// the embedded cores.
func SparseTriples(rows, cols, nnz int64, shards int, seed int64) Shards {
	line := textWidth(IDBase, IDBase+rows-1) + textWidth(IDBase, IDBase+cols-1) + maxUnitFloatText + 3
	return genShards(splitCounts(nnz, shards), func(s int, cnt int64) []byte {
		rng := newSource(seed + int64(s)*49979687)
		buf := make([]byte, 0, cnt*line)
		for i := int64(0); i < cnt; i++ {
			buf = serial.AppendIntText(buf, rng.Int63n(rows)+IDBase, ' ')
			buf = serial.AppendIntText(buf, rng.Int63n(cols)+IDBase, ' ')
			buf = serial.AppendFloatTextPrec(buf, rng.Float64()*2-1, 6, '\n')
		}
		return buf
	})
}
