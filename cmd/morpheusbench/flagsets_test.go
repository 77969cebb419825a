package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateFlagSets = flag.Bool("update", false, "rewrite testdata/flagsets.sha256")

// flagSetsFile holds one line per flag set and artifact, in the format
// sha256sum prints: "<hex digest>  <row>/<artifact>".
const flagSetsFile = "testdata/flagsets.sha256"

// flagSets are the CI identity rows whose flags move the artifacts at
// -scale 0.001, so internal/exp's golden test (default flags) does not
// cover them. Each runs with 100 µs metric windows and a trace, as
// scripts/identity.sh runs it.
var flagSets = []struct {
	name string
	args []string
}{
	{"apps-telemetry", []string{"-exp", "apps",
		"-slo", "metric=nvme.MREAD.latency_ps,target=10ms,budget=0.05",
		"-trace-sample", "head=64,lat=50ms"}},
	{"apps-batch", []string{"-exp", "apps", "-batch-depth", "16"}},
	{"array-8-shards", []string{"-exp", "array", "-shards", "8", "-replicas", "2"}},
	{"array-bursty", []string{"-exp", "array", "-shards", "3", "-replicas", "2", "-arrival", "bursty:20us"}},
}

// TestFlagSetArtifacts pins the table, metrics, series and trace of every
// flagSets row at -scale 0.001 to a recorded SHA-256, the way
// TestGoldenArtifacts pins the default flags. A change that moves one of
// these rows reruns with -update and shows which artifacts moved.
//
// The digests are recorded on amd64; see TestGoldenArtifacts for why
// other architectures skip.
func TestFlagSetArtifacts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("flag-set digests are recorded on amd64, not %s (FMA fusion changes rounding)", runtime.GOARCH)
	}
	var want map[string]string
	if !*updateFlagSets {
		want = readDigests(t)
	}
	var lines []string
	seen := map[string]bool{}
	for _, fs := range flagSets {
		dir := t.TempDir()
		out := func(name string) string { return filepath.Join(dir, name) }
		args := append(append([]string{}, fs.args...),
			"-scale", "0.001", "-metrics-window", "100us",
			"-metrics-out", out("metrics.json"), "-timeseries-out", out("series.json"),
			"-trace-out", out("trace.json"))
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: run(%q) = %d: %s", fs.name, args, code, stderr.String())
		}
		for _, a := range []string{"table.txt", "metrics.json", "series.json", "trace.json"} {
			b := stdout.Bytes()
			if a != "table.txt" {
				var err error
				if b, err = os.ReadFile(out(a)); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(b)
			got, name := hex.EncodeToString(sum[:]), fs.name+"/"+a
			seen[name] = true
			lines = append(lines, got+"  "+name)
			if *updateFlagSets {
				continue
			}
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no recorded digest (got %s)", name, got)
			} else if w != got {
				t.Errorf("%s changed: recorded %s, got %s", name, w, got)
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: recorded digest for an artifact no flag set produces", name)
		}
	}
	if *updateFlagSets {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flagSetsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), flagSetsFile)
	}
}

// readDigests parses flagSetsFile into artifact → digest.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(flagSetsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/morpheusbench -run FlagSet -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", flagSetsFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
