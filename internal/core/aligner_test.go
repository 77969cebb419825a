package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"morpheus/internal/serial"
)

// recordAligner is the conventional path's record aligner: one carry and
// one join scratch for the whole stream.
type recordAligner struct{ carry, scratch []byte }

func (r *recordAligner) align(chunk []byte, final bool) []byte {
	return serial.AlignRecords(&r.carry, &r.scratch, chunk, final)
}

func TestRecordAlignerBasics(t *testing.T) {
	a := &recordAligner{}
	// Mid-record cut carries the tail; with nothing carried the result
	// is the chunk itself, not a copy.
	in := []byte("1 2\n3 ")
	out := a.align(in, false)
	if string(out) != "1 2\n" {
		t.Fatalf("first chunk = %q", out)
	}
	if &out[0] != &in[0] {
		t.Fatal("aligning with no carry copied the chunk")
	}
	out = a.align([]byte("4\n"), false)
	if string(out) != "3 4\n" {
		t.Fatalf("second chunk = %q", out)
	}
	// No newline at all: everything carried, in the carry's own array.
	carry := a.carry[:1]
	out = a.align([]byte("567"), false)
	if out != nil {
		t.Fatalf("carry-only chunk returned %q", out)
	}
	if &a.carry[0] != &carry[0] {
		t.Fatal("carrying a record reallocated the carry")
	}
	// Final flushes the carry even without a trailing newline.
	out = a.align([]byte("8"), true)
	if string(out) != "5678" {
		t.Fatalf("final chunk = %q", out)
	}
}

// TestRecordAlignerLosslessProperty: for any input and any chunking, the
// concatenation of aligned outputs is exactly the input, and every
// non-final output ends at a record boundary.
func TestRecordAlignerLosslessProperty(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		a := &recordAligner{}
		var rebuilt []byte
		pos := 0
		for _, c := range cuts {
			if pos >= len(data) {
				break
			}
			end := pos + 1 + int(c)%64
			if end > len(data) {
				end = len(data)
			}
			out := a.align(data[pos:end], false)
			if len(out) > 0 && out[len(out)-1] != '\n' {
				return false // non-final output must end on a record boundary
			}
			rebuilt = append(rebuilt, out...)
			pos = end
		}
		rebuilt = append(rebuilt, a.align(data[pos:], true)...)
		return bytes.Equal(rebuilt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
