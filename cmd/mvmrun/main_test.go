package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const intAppSrc = `
StorageApp int app(ms_stream s) {
	int v;
	int n = 0;
	while (ms_scanf(s, "%d", &v) == 1) { ms_emit_i32(v); n++; }
	ms_memcpy();
	return n;
}
`

// writeInputs puts the int StorageApp and a small token stream in a
// temporary directory and returns their paths.
func writeInputs(t *testing.T) (src, in string) {
	t.Helper()
	dir := t.TempDir()
	src, in = filepath.Join(dir, "app.mc"), filepath.Join(dir, "in.txt")
	if err := os.WriteFile(src, []byte(intAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, []byte("1 -2 30\n400 5000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return src, in
}

// TestRejectsBadValues: a feed window or clock that is not positive exits 2
// with a message naming the flag, instead of hanging (-chunk 0) or
// panicking (-chunk < 0).
func TestRejectsBadValues(t *testing.T) {
	src, in := writeInputs(t)
	cases := []struct {
		name string
		args []string
		flag string
	}{
		{"chunk-zero", []string{"-chunk", "0"}, "-chunk"},
		{"chunk-negative", []string{"-chunk", "-4"}, "-chunk"},
		{"mhz-zero", []string{"-mhz", "0"}, "-mhz"},
		{"mhz-negative", []string{"-mhz", "-830"}, "-mhz"},
		{"mhz-nan", []string{"-mhz", "NaN"}, "-mhz"},
		{"args-malformed", []string{"-args", "1,x"}, "-args"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-src", src, "-in", in}, tc.args...)
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stderr: %s)", args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			if stdout.Len() != 0 {
				t.Errorf("the app ran despite the bad value: %d bytes out", stdout.Len())
			}
		})
	}
}

// TestRunsApp: a one-byte feed window still parses every token, and the
// objects and return value match a whole-stream feed.
func TestRunsApp(t *testing.T) {
	src, in := writeInputs(t)
	var want []byte
	for _, v := range []int32{1, -2, 30, 400, 5000} {
		want = binary.LittleEndian.AppendUint32(want, uint32(v))
	}
	for _, chunk := range []string{"1", "131072"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-src", src, "-in", in, "-chunk", chunk}, &stdout, &stderr); code != 0 {
			t.Fatalf("-chunk %s: exit %d: %s", chunk, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("-chunk %s: objects %x, want %x", chunk, stdout.Bytes(), want)
		}
		if !strings.Contains(stderr.String(), "halted: ret=5 ") {
			t.Errorf("-chunk %s: summary %q lacks ret=5", chunk, stderr.String())
		}
	}
}
