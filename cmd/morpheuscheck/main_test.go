package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeArtifacts puts a baseline and a candidate metrics artifact in a
// temporary directory and returns their paths.
func writeArtifacts(t *testing.T, base, cand string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	b, c := filepath.Join(dir, "base.json"), filepath.Join(dir, "cand.json")
	for path, doc := range map[string]string{b: base, c: cand} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return b, c
}

const (
	baseDoc  = `{"counters": {"nvme.commands": 1}, "histograms": {"lat": {"p99": 30}}}`
	movedDoc = `{"counters": {"nvme.commands": 100}, "histograms": {"lat": {"p99": 30}}}`
)

// TestGateVerdicts: identical artifacts pass, a moved metric fails with
// exit 1, and a rule loose enough to cover the move passes again.
func TestGateVerdicts(t *testing.T) {
	base, moved := writeArtifacts(t, baseDoc, movedDoc)
	cases := []struct {
		name string
		args []string
		code int
		out  string
	}{
		{"identical", []string{base, base}, 0, "ok: 2 metrics within tolerance"},
		{"moved", []string{base, moved}, 1, "FAIL regressed counters.nvme.commands: 1 -> 100"},
		{"moved-quiet", []string{"-q", base, moved}, 1, "gate failed: 1 regression(s) across 2 checked metrics"},
		{"moved-within-rule", []string{"-rule", "counters.*:100", base, moved}, 0, "ok: 2 metrics"},
		{"moved-within-default", []string{"-default-tol", "99", base, moved}, 0, "ok: 2 metrics"},
		{"moved-rule-off", []string{"-rule", "counters.*:0:off", base, moved}, 0, "ok: 1 metrics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("run(%q) = %d, want %d (stdout: %s stderr: %s)", tc.args, code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Fatalf("stdout %q lacks %q", stdout.String(), tc.out)
			}
		})
	}
}

// TestRejectsBadValues: a tolerance that is NaN, infinite or negative, a
// malformed rule, the wrong operand count or an unreadable artifact exits
// 2 naming the culprit: under a NaN tolerance every change would pass.
func TestRejectsBadValues(t *testing.T) {
	base, moved := writeArtifacts(t, baseDoc, movedDoc)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"default-tol-nan", []string{"-default-tol", "NaN", base, moved}, "-default-tol"},
		{"default-tol-inf", []string{"-default-tol", "Inf", base, moved}, "-default-tol"},
		{"default-tol-negative", []string{"-default-tol", "-0.1", base, base}, "-default-tol"},
		{"default-tol-malformed", []string{"-default-tol", "x", base, base}, "-default-tol"},
		{"rule-nan", []string{"-rule", "*:NaN", base, moved}, "-rule"},
		{"rule-negative", []string{"-rule", "*:-1", base, base}, "-rule"},
		{"one-operand", []string{base}, "usage"},
		{"missing-file", []string{base, filepath.Join(t.TempDir(), "none.json")}, "none.json"},
		{"unparsable", []string{base, bad}, "bad.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stdout: %s)", tc.args, code, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not name %q", stderr.String(), tc.want)
			}
		})
	}
}
