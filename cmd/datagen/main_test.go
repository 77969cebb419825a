package main

import (
	"bytes"
	"crypto/sha256"
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

// TestPagerankFilesGolden pins the bytes datagen writes for pagerank over
// three shards. The digests were recorded from the math/rand-driven
// generator; a generator rewrite must reproduce them exactly.
func TestPagerankFilesGolden(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "pagerank", "-scale", "0.0002", "-shards", "3", "-o", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want := []string{
		"06a5b9207a38227d0a1230c726df1d717f4cba8b9034b2d1ea75872658cf5828",
		"e5bb70b5550e01e21c73ceb885da2f1b791390fb3c9676859018997046ca1cd1",
		"50ef38185b08f850d710a05bf3a53a3a2cd3414154fde6c1377ad0a4d8abdd1d",
	}
	for i, w := range want {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("pagerank.shard%d.txt", i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != w {
			t.Errorf("shard %d: SHA-256 %s, want %s", i, got, w)
		}
	}
}
