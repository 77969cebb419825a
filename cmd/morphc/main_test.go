package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"morpheus/internal/mvm"
)

const appSrc = `
StorageApp int app(ms_stream s) {
	int v;
	int n = 0;
	while (ms_scanf(s, "%d", &v) == 1) { ms_emit_i32(v + 2 * 3); n++; }
	ms_memcpy();
	return n;
}
`

// writeSource puts appSrc in a temporary directory and returns its path.
func writeSource(t *testing.T) string {
	t.Helper()
	src := filepath.Join(t.TempDir(), "app.mc")
	if err := os.WriteFile(src, []byte(appSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

// TestAssemblyOutput: -S prints the assembly on stdout and writes no
// image; -O 0 leaves the constant expression the default level folds.
func TestAssemblyOutput(t *testing.T) {
	src := writeSource(t)
	asm := map[string]string{}
	for _, level := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-S", "-O", level, src}, &stdout, &stderr); code != 0 {
			t.Fatalf("-O %s: exit %d: %s", level, code, &stderr)
		}
		if _, err := mvm.Assemble(stdout.String()); err != nil {
			t.Fatalf("-O %s: output does not reassemble: %v\n%s", level, err, &stdout)
		}
		asm[level] = stdout.String()
	}
	if !strings.Contains(asm["0"], "mul") || strings.Contains(asm["1"], "mul") {
		t.Fatalf("want 2*3 folded at -O 1 only:\n-O 0:\n%s\n-O 1:\n%s", asm["0"], asm["1"])
	}
	if _, err := os.Stat(src + ".mvm"); !os.IsNotExist(err) {
		t.Fatalf("-S wrote an image (stat err %v)", err)
	}
}

// TestImageOutput: the image lands next to the source by default or at
// -o, and decodes to the program -S prints.
func TestImageOutput(t *testing.T) {
	src := writeSource(t)
	var asm, stderr bytes.Buffer
	if code := run([]string{"-S", src}, &asm, &stderr); code != 0 {
		t.Fatalf("-S: exit %d: %s", code, &stderr)
	}
	for _, tc := range []struct {
		args []string
		dst  string
	}{
		{[]string{src}, src + ".mvm"},
		{[]string{"-o", filepath.Join(filepath.Dir(src), "out.img"), src}, filepath.Join(filepath.Dir(src), "out.img")},
	} {
		var stdout bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%q): exit %d: %s", tc.args, code, &stderr)
		}
		if !strings.HasPrefix(stdout.String(), tc.dst+`: StorageApp "app"`) {
			t.Fatalf("run(%q) summary %q", tc.args, &stdout)
		}
		img, err := os.ReadFile(tc.dst)
		if err != nil {
			t.Fatal(err)
		}
		prog := new(mvm.Program)
		if err := prog.UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
		if got := mvm.Disassemble(prog); got != asm.String() {
			t.Fatalf("image at %s disassembles to\n%s\nwant\n%s", tc.dst, got, &asm)
		}
	}
}

// TestRejectsBadValues: an optimization level other than 0 or 1, an
// unknown flag or a missing source exits 2, and writes no image.
func TestRejectsBadValues(t *testing.T) {
	src := writeSource(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"opt-high", []string{"-O", "7", src}, "-O"},
		{"opt-negative", []string{"-O", "-1", src}, "-O"},
		{"opt-malformed", []string{"-O", "fast", src}, "-O"},
		{"unknown-flag", []string{"-x", src}, "-x"},
		{"no-source", nil, "usage"},
		{"two-sources", []string{src, src}, "usage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%q) = %d, want 2 (stderr: %s)", tc.args, code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not name %q", stderr.String(), tc.want)
			}
		})
	}
	if _, err := os.Stat(src + ".mvm"); !os.IsNotExist(err) {
		t.Fatalf("a rejected command line wrote an image (stat err %v)", err)
	}
}

// TestCompileErrors: a source that does not compile or does not exist
// exits 1 with the compiler's message.
func TestCompileErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mc")
	if err := os.WriteFile(bad, []byte("StorageApp int app(ms_stream s) { return x; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, filepath.Join(dir, "none.mc")} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{path}, &stdout, &stderr); code != 1 {
			t.Fatalf("%s: exit %d, want 1 (stderr: %s)", path, code, &stderr)
		}
		if !strings.HasPrefix(stderr.String(), "morphc: ") {
			t.Fatalf("%s: stderr %q", path, &stderr)
		}
	}
}
