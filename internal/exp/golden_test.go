package exp

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"morpheus/internal/stats"
	"morpheus/internal/trace"
	"morpheus/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256")

// goldenFile holds one line per experiment and artifact, in the format
// sha256sum prints: "<hex digest>  <experiment>/<artifact>".
const goldenFile = "testdata/golden.sha256"

// goldenOptions is the recorded configuration: every experiment at
// -scale 0.001 with the default seed, 100 µs metric windows and a full
// (unsampled) trace, as `morpheusbench -exp <name> -scale 0.001
// -metrics-window 100us -trace-out … -metrics-out … -timeseries-out …`
// would run it.
func goldenOptions() Options {
	o := DefaultOptions()
	o.Scale = 0.001
	o.MetricsWindow = 100 * units.Microsecond
	o.Metrics = stats.NewRegistry()
	o.Trace = trace.New(0)
	return o
}

// artifactDigests runs one experiment and hashes its four artifacts as
// they stream out: the rendered tables, the metrics JSON, the windowed
// series JSON and the Chrome trace. No artifact is written to a file.
func artifactDigests(t *testing.T, e Experiment) map[string]string {
	t.Helper()
	opts := goldenOptions()
	traceHash := sha256.New()
	stream := trace.NewChromeStream(traceHash)
	opts.Trace.SetSink(stream)
	tables, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	tableHash := sha256.New()
	for _, tb := range tables {
		tb.Render(tableHash)
	}
	if err := stream.Close(); err != nil {
		t.Fatalf("%s: trace: %v", e.Name, err)
	}
	metricsHash, seriesHash := sha256.New(), sha256.New()
	var metrics, series bytes.Buffer
	if err := opts.Metrics.WriteJSON(io.MultiWriter(metricsHash, &metrics)); err != nil {
		t.Fatalf("%s: metrics: %v", e.Name, err)
	}
	// As in morpheusbench: an experiment that builds no system leaves the
	// aggregate without a window, so its series is empty, not missing.
	opts.Metrics.EnableSeries(int64(opts.MetricsWindow))
	if err := opts.Metrics.WriteSeriesJSON(io.MultiWriter(seriesHash, &series)); err != nil {
		t.Fatalf("%s: series: %v", e.Name, err)
	}
	checkCountersConserved(t, e.Name, metrics.Bytes(), series.Bytes())
	hexOf := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	return map[string]string{
		e.Name + "/tables.txt":   hexOf(tableHash),
		e.Name + "/metrics.json": hexOf(metricsHash),
		e.Name + "/series.json":  hexOf(seriesHash),
		e.Name + "/trace.json":   hexOf(traceHash),
	}
}

// checkCountersConserved fails unless each counter's window values in the
// series artifact sum to its whole-run total in the metrics artifact:
// every increment is charged to exactly one window.
func checkCountersConserved(t *testing.T, exp string, metrics, series []byte) {
	t.Helper()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	var s struct {
		Windows []struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(metrics, &m); err != nil {
		t.Fatalf("%s: metrics: %v", exp, err)
	}
	if err := json.Unmarshal(series, &s); err != nil {
		t.Fatalf("%s: series: %v", exp, err)
	}
	sums := map[string]int64{}
	for _, w := range s.Windows {
		for name, v := range w.Counters {
			sums[name] += v
		}
	}
	for name, total := range m.Counters {
		if sums[name] != total {
			t.Errorf("%s: counter %s: windows sum to %d, whole-run total is %d", exp, name, sums[name], total)
		}
	}
	for name, sum := range sums {
		if _, ok := m.Counters[name]; !ok {
			t.Errorf("%s: counter %s: windows sum to %d, absent from the whole-run metrics", exp, name, sum)
		}
	}
}

// readGolden parses goldenFile into artifact → digest.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/exp -run Golden -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenArtifacts pins every artifact of every experiment to a
// recorded SHA-256, so a change meant to keep behaviour (a refactor, a
// deletion, a speed-up) proves it left each table, metrics file, series
// and trace byte-identical. A change meant to move results regenerates
// the file with -update and shows which artifacts moved in its diff.
//
// The digests are recorded on amd64. Go may fuse a multiply and an add
// into one FMA instruction on arm64, ppc64le and s390x, which rounds
// differently, so other architectures skip the test.
func TestGoldenArtifacts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s (FMA fusion changes rounding)", runtime.GOARCH)
	}
	var want map[string]string
	if !*updateGolden {
		want = readGolden(t)
	}
	var lines []string
	seen := map[string]bool{}
	for _, e := range Experiments() {
		got := artifactDigests(t, e)
		for _, a := range []string{"tables.txt", "metrics.json", "series.json", "trace.json"} {
			name := e.Name + "/" + a
			seen[name] = true
			lines = append(lines, got[name]+"  "+name)
			if *updateGolden {
				continue
			}
			if w, ok := want[name]; !ok {
				t.Errorf("%s: no recorded digest (got %s)", name, got[name])
			} else if w != got[name] {
				t.Errorf("%s changed: recorded %s, got %s", name, w, got[name])
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: recorded digest for an artifact no experiment produces", name)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), goldenFile)
	}
}
