package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refParse is the two-pass reference the single-pass parsers are checked
// against: Tokenize the whole chunk, check the record count, then convert
// every token with strconv.
func refParse(chunk []byte, fields []FieldKind) ([]byte, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("serial: RecordParser needs at least one field")
	}
	toks := Tokenize(chunk)
	if len(toks)%len(fields) != 0 {
		return nil, fmt.Errorf("serial: %d tokens do not fill records of %d fields", len(toks), len(fields))
	}
	var out []byte
	for i, tok := range toks {
		kind := fields[i%len(fields)]
		if kind.IsFloat() {
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return nil, &ParseError{Token: string(tok), Err: err}
			}
			if kind == FieldFloat32 {
				out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(f)))
			} else {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
			}
			continue
		}
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return nil, &ParseError{Token: string(tok), Err: err}
		}
		if kind == FieldInt32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(int32(n)))
		} else {
			out = binary.LittleEndian.AppendUint64(out, uint64(n))
		}
	}
	return out, nil
}

// sameResult reports why got differs from the reference, or "" if the
// bytes are equal and the errors agree on nil-ness and ParseError.Token.
func sameResult(got, want []byte, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("err = %v, reference err = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		var g, w *ParseError
		gp, wp := errors.As(gotErr, &g), errors.As(wantErr, &w)
		if gp != wp || (gp && g.Token != w.Token) {
			return fmt.Sprintf("err = %v, reference err = %v", gotErr, wantErr)
		}
		return ""
	}
	if !bytes.Equal(got, want) {
		return fmt.Sprintf("out = %x, reference = %x", got, want)
	}
	return ""
}

// digitSeeds are chunks whose last token has 1 to 20 digits, unsigned or
// signed, and ends 0 to 8 bytes before the end of the chunk: around the
// 18-digit fast-path limit, across the 8-byte word boundary and into the
// scalar tail.
func digitSeeds() []string {
	var seeds []string
	for d := 1; d <= 20; d++ {
		digits := strings.Repeat("9876543210", 2)[:d]
		for _, sign := range []string{"", "-", "+"} {
			for pad := 0; pad <= 8; pad++ {
				seeds = append(seeds, "7 "+sign+digits+strings.Repeat(" ", pad))
			}
		}
	}
	return seeds
}

// FuzzParseTokens checks the single-pass parsers against the Tokenize +
// strconv reference, for every FieldKind and for record layouts decoded
// from the layout byte: ParseTokens and ParseRecords directly, and
// AppendTokens and AppendRecords after a non-empty prefix, which must come
// back unchanged.
func FuzzParseTokens(f *testing.F) {
	for _, s := range []string{
		"+5 -0 7\n",
		"123456789012345678 -123456789012345678\n",
		"1234567890123456789 -1234567890123456789\n",
		"9223372036854775807 -9223372036854775808 9223372036854775808\n",
		"2147483648 -2147483649 4294967296\n",
		"1_000 2\n",
		"1 2 0.5\n3 4 -1.25\n",
		"+ - -- +-1 0x10 1e3\n",
		"12345678x 1234567x8 12345678901234567x\n",
		"",
	} {
		// Each kind alone, then 2- and 3-field layouts: [Int64 Int32],
		// [Int32 Int32 Float64] and [Int32 Int64 Float64].
		for _, layout := range []byte{0, 1, 2, 3, 0x41, 0xb0, 0xb4} {
			f.Add([]byte(s), layout, []byte("prefix"))
		}
	}
	for _, s := range digitSeeds() {
		for _, layout := range []byte{0, 1} {
			f.Add([]byte(s), layout, []byte{0xff})
		}
	}
	f.Fuzz(func(t *testing.T, chunk []byte, layout byte, prefix []byte) {
		if len(prefix) == 0 {
			prefix = []byte{layout}
		}
		// Low two bits pick the kind for ParseTokens; the record layout
		// takes 1-3 fields, two bits each, from the whole byte.
		kind := FieldKind(layout & 3)
		got, gotErr := ParseTokens(chunk, kind)
		want, wantErr := refParse(chunk, []FieldKind{kind})
		if msg := sameResult(got, want, gotErr, wantErr); msg != "" {
			t.Fatalf("ParseTokens(%q, %d): %s", chunk, kind, msg)
		}
		got, gotErr = AppendTokens(bytes.Clone(prefix), chunk, kind)
		if msg := samePrefixed(got, want, gotErr, wantErr, prefix); msg != "" {
			t.Fatalf("AppendTokens(%x, %q, %d): %s", prefix, chunk, kind, msg)
		}
		fields := make([]FieldKind, 1+int(layout>>6)%3)
		for i := range fields {
			fields[i] = FieldKind(layout >> (2 * i) & 3)
		}
		got, gotErr = ParseRecords(chunk, fields)
		want, wantErr = refParse(chunk, fields)
		if msg := sameResult(got, want, gotErr, wantErr); msg != "" {
			t.Fatalf("ParseRecords(%q, %v): %s", chunk, fields, msg)
		}
		got, gotErr = AppendRecords(bytes.Clone(prefix), chunk, fields)
		if msg := samePrefixed(got, want, gotErr, wantErr, prefix); msg != "" {
			t.Fatalf("AppendRecords(%x, %q, %v): %s", prefix, chunk, fields, msg)
		}
	})
}

// samePrefixed is sameResult for the append parsers: got must start with
// prefix, unchanged, whatever the outcome, and the bytes after it must
// match the reference.
func samePrefixed(got, want []byte, gotErr, wantErr error, prefix []byte) string {
	if !bytes.HasPrefix(got, prefix) {
		return fmt.Sprintf("prefix %x came back as %x", prefix, got)
	}
	if gotErr != nil && len(got) != len(prefix) {
		return fmt.Sprintf("err = %v but %d bytes appended", gotErr, len(got)-len(prefix))
	}
	return sameResult(got[len(prefix):], want, gotErr, wantErr)
}
