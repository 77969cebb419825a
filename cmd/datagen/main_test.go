package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadValues: a scale that is not positive, or an unknown app,
// exits 2 with a message naming the flag and writes no file.
func TestRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"scale-zero", []string{"-scale", "0"}, "-scale"},
		{"scale-negative", []string{"-scale", "-0.5"}, "-scale"},
		{"scale-nan", []string{"-scale", "NaN"}, "-scale"},
		{"app-unknown", []string{"-app", "nosuchapp"}, "-app"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := append([]string{"-app", "grep", "-o", dir}, tc.args...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stderr: %s)", args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("wrote %d files despite the bad value", len(files))
			}
		})
	}
}

// TestGeneratesShards: a valid command line writes one file per shard.
func TestGeneratesShards(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "grep", "-scale", "0.0001", "-shards", "2", "-o", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for i := range 2 {
		path := filepath.Join(dir, fmt.Sprintf("grep.shard%d.txt", i))
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("shard %d: %v", i, err)
		}
	}
	if !strings.Contains(stdout.String(), "across 2 shards") {
		t.Errorf("report %q lacks the shard count", stdout.String())
	}
}

// TestList: -list names every application and needs no other flag.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "grep") {
		t.Errorf("-list output lacks grep:\n%s", stdout.String())
	}
}
