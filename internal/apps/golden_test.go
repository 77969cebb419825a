package apps

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"morpheus/internal/units"
	"morpheus/internal/workload"
)

// shardsDigest is the SHA-256 of the shard count followed by each shard's
// length and bytes, so a byte moved across a shard boundary changes it.
func shardsDigest(s workload.Shards) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	for _, sh := range s {
		binary.LittleEndian.PutUint64(n[:], uint64(len(sh)))
		h.Write(n[:])
		h.Write(sh)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGolden pins every generated input byte. The digests were
// recorded from the math/rand-driven generators; any generator rewrite
// must reproduce them exactly, because every simulated number and golden
// artifact hash downstream is a function of these bytes.
func TestGeneratorGolden(t *testing.T) {
	const scale = 1.0 / 4096
	got := map[string]string{}
	check := func(key string, s workload.Shards) {
		got[key] = shardsDigest(s)
	}
	for _, seed := range []int64{20160618, 4242} {
		for _, a := range All() {
			target := units.Bytes(float64(a.PaperInputSize) * scale)
			check(fmt.Sprintf("%s/seed=%d", a.Name, seed), a.Gen(target, a.Threads, seed))
		}
	}
	pr, err := ByName("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	check("pagerank/shards=7", pr.Gen(units.Bytes(float64(pr.PaperInputSize)*scale), 7, 20160618))
	// More shards than items: shards 5.. are empty.
	check("intarray/empty-shards", workload.IntArray(5, 1<<30, 8, 9, 20160618))
	check("edgelist/empty-shards", workload.EdgeList(10, 3, 5, 20160618))
	check("dictionary/empty-shards", workload.DictionaryText(3, 100, 2, 5, 20160618))
	check("densematrix/empty-shards", workload.DenseMatrix(2, 3, 99999999, 4, 20160618))
	check("points/empty-shards", workload.Points(2, 3, 99999999, 4, 20160618))
	check("sparse/empty-shards", workload.SparseTriples(10, 10, 2, 4, 20160618))

	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if w := goldenGenDigests[key]; w != got[key] {
			t.Errorf("%q: digest %s, want %s", key, got[key], w)
		}
	}
	if len(goldenGenDigests) != len(got) {
		t.Errorf("%d golden digests, computed %d", len(goldenGenDigests), len(got))
	}
}

var goldenGenDigests = map[string]string{
	"bfs/seed=20160618":        "bb36ec8ec5ac9d8fb5138cfb0477a6e72cf94400bebf12d18dfc4c8683fe324f",
	"bfs/seed=4242":            "c4ef0476377344b7e1cfde1b4fd5249b7f187d16f59b48e35e146b6862ea3ad0",
	"densematrix/empty-shards": "8dd727978fa9c662e2f07da180cc001c3e4dba97bcb9a07e6ce7f564ab68fb70",
	"dictionary/empty-shards":  "6ba703940812c259ea69cf4f22cfa5464b63a15a5ba4c36a89245c861012244b",
	"edgelist/empty-shards":    "4a51e19041b2eff840008ae1c62c51db52602d46f581f0f8e883e502b88037f8",
	"gaussian/seed=20160618":   "2b1494b51de4ace5f1331f76be5d18fe8088f463ae54e5142a8f8b219d3fa0ab",
	"gaussian/seed=4242":       "0411968c474d24b326f130e0eed37292ed81200722f7c1b64860039caa9a4c26",
	"grep/seed=20160618":       "68805deb0ff9ebc4939ed3f2456f5fd6f59b358a073d98ba255bed18ff897bfd",
	"grep/seed=4242":           "5e436a8473246ea1a42c010c0b010ecb96d11b1dbf9de361cc292d5246dcb667",
	"hybridsort/seed=20160618": "0365fc67c00c553b82390e04ee5cb4136e6b89feffeb9dd7cb6ca3f5c34237d3",
	"hybridsort/seed=4242":     "ac593ecd864765499952a95b41750f0dd052fe4c7782cfa80a11d693a4970c3c",
	"intarray/empty-shards":    "23c0b18cb94460af2d57ef4958bfac36dd02617192f9721c694817ff6acffe1d",
	"kmeans/seed=20160618":     "94926e5495aa501abfd009428ca99d3332e9e33a4b2abfe8053df925d7cace30",
	"kmeans/seed=4242":         "cd013cb113f431591b2edfab28a805bfff2e57509caab6392b6bdc9b7012d85e",
	"lud/seed=20160618":        "f0dc885343fd3514ee532ad58aa22af170f44235d77c47a6a7f2b77aaeb68bae",
	"lud/seed=4242":            "a7a41be47acda9ec667e1fb1e7cf0aff20a2933d64b528b52cf1cd19366364d7",
	"nn/seed=20160618":         "c814024848fb9b98e7b5b4fc1fe92f2801fd9c08c383da1ba22e1b64d08fbeb9",
	"nn/seed=4242":             "7c2936bdef97e0e8b65b0e740d7f8e4a02e07b9a1d31c8dbf9e8494c7a130ee1",
	"pagerank/seed=20160618":   "a2ec0ffe70a78b326deeeb06bd00e661b29d79b59db19a7692cf8b35fd47c6d9",
	"pagerank/seed=4242":       "dfedc41419b89a38b60ffa6f3569c9bde85d43a923f3c5f2dbe5726d5eb9f8f9",
	"pagerank/shards=7":        "1d59229553f38964c6f1745bc311658ce80019fa1f5ffbd66bbf9c3596417612",
	"points/empty-shards":      "6f2f6c1219b1008be882523d9e3f428f8ee34bde9dadd4d4ebf0454de1af2fb6",
	"sparse/empty-shards":      "5ad55530a22d1f225fb75d8697481a159674977b4887c2adfcde8b884950cec5",
	"spmv/seed=20160618":       "a34d850be2f25799aebfa014bb2fd293dea0e2b54ef1a3b1b4528f050825b92d",
	"spmv/seed=4242":           "89632a9ed69f9f26b141c835d082a15689c3edc7f073ef12baa00e2ccaf63bc5",
	"wordcount/seed=20160618":  "44b5be9e659584e88b017300ae657234257271f5cc41d4321267043e5532da3b",
	"wordcount/seed=4242":      "6b129746f0a93141ec22edbd1cf9ae553752a796cde9fa5ebbddc90d681fb91b",
}
