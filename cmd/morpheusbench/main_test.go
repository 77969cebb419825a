package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadValues: a malformed flag value exits 2 with a message
// naming the flag, before any experiment runs or any output file is
// created, instead of silently running with a default.
func TestRejectsBadValues(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"scale-zero", []string{"-scale", "0"}, "-scale"},
		{"scale-negative", []string{"-scale", "-0.5"}, "-scale"},
		{"scale-nan", []string{"-scale", "NaN"}, "-scale"},
		{"parallel-negative", []string{"-parallel", "-1"}, "-parallel"},
		{"batch-depth-negative", []string{"-batch-depth", "-4"}, "-batch-depth"},
		{"ssd-cache-mb-negative", []string{"-ssd-cache-mb", "-64"}, "-ssd-cache-mb"},
		{"format-unknown", []string{"-format", "json"}, "-format"},
		{"shards-negative", []string{"-exp", "array", "-shards", "-1"}, "-shards"},
		{"replicas-negative", []string{"-exp", "array", "-replicas", "-1"}, "-replicas"},
		{"metrics-out-prom", []string{"-metrics-out", out("m.prom")}, "-metrics-out"},
		{"timeseries-out-csv", []string{"-timeseries-out", out("s.csv")}, "-timeseries-out"},
		{"removed-ssd-cache", []string{"-ssd-cache"}, "-ssd-cache"},
		{"removed-window-depth", []string{"-window-depth", "32"}, "-window-depth"},
		{"unknown-exp", []string{"-exp", "fig99"}, "-list"},
		{"slo-budget-nan", []string{"-slo", "metric=nvme.MREAD.latency_ps,target=10ms,budget=NaN"}, "-slo"},
		{"slo-budget-trailing", []string{"-slo", "metric=nvme.MREAD.latency_ps,target=10ms,budget=0.5abc"}, "-slo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{
				"-exp", "table1", "-scale", "0.001", "-metrics-window", "100us",
				"-trace-out", out("t.json"), "-metrics-out", out("m.json"),
				"-timeseries-out", out("s.json"), "-cpuprofile", out("cpu.pprof"),
			}, tc.args...)
			code := run(args, &stdout, &stderr)
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("rejected command line left %s behind", e.Name())
				os.Remove(filepath.Join(dir, e.Name())) // keep later rows independent
			}
			if code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stderr: %s)", args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			if stdout.Len() != 0 {
				t.Errorf("an experiment ran despite the bad value:\n%s", stdout.String())
			}
		})
	}
}

// TestMemProfileWriteFailure: a heap profile that cannot be written fails
// the run with exit 1; a writable path gets a non-empty profile.
func TestMemProfileWriteFailure(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		path string
		code int
	}{
		{filepath.Join(dir, "no", "such", "mem.pprof"), 1},
		{filepath.Join(dir, "mem.pprof"), 0},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"-exp", "table1", "-scale", "0.001", "-memprofile", tc.path}
		if code := run(args, &stdout, &stderr); code != tc.code {
			t.Fatalf("run(%q) = %d, want %d (stderr: %s)", args, code, tc.code, stderr.String())
		}
		if tc.code != 0 {
			if !strings.Contains(stderr.String(), "memprofile") {
				t.Errorf("stderr %q does not name -memprofile", stderr.String())
			}
			continue
		}
		if fi, err := os.Stat(tc.path); err != nil || fi.Size() == 0 {
			t.Errorf("heap profile not written: %v", err)
		}
	}
}

// TestList: -list prints the experiment index, one aligned line each.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 12 {
		t.Fatalf("-list printed %d lines, want 12:\n%s", len(lines), stdout.String())
	}
	if want := "  slowhost   slower-server sensitivity (1.2 GHz host)"; lines[4] != want {
		t.Errorf("-list line 5 = %q, want %q", lines[4], want)
	}
}

// TestRunsOneExperiment: a valid command line runs the experiment and
// renders its table in the chosen format.
func TestRunsOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table1", "-scale", "0.001", "-format", "csv"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "running table1 (") || !strings.Contains(out, "\napplication,suite,") {
		t.Errorf("unexpected output:\n%s", out)
	}
}
