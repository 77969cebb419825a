// Package serial is the data-interchange substrate: the text encodings the
// benchmark inputs use (whitespace/newline-delimited integer and float
// tokens, the formats §II motivates), the binary object encodings the
// computation kernels consume (little-endian int32/int64/float32/float64
// arrays), and native parsers that convert between them.
//
// The native parsers double as (a) the host-side deserializers of the
// conventional baseline and (b) the native continuations of sampled
// StorageApp execution — so a single implementation is bit-compared
// against the interpreted MorphC StorageApps by the equivalence tests.
package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// FieldKind is the type of one whitespace-separated token.
type FieldKind int

// Field kinds.
const (
	FieldInt32 FieldKind = iota
	FieldInt64
	FieldFloat32
	FieldFloat64
)

// Width returns the binary object size of the field.
func (k FieldKind) Width() int {
	switch k {
	case FieldInt32, FieldFloat32:
		return 4
	default:
		return 8
	}
}

// IsFloat reports whether the token is float-formatted text.
func (k FieldKind) IsFloat() bool { return k == FieldFloat32 || k == FieldFloat64 }

// Tokenize splits b into whitespace/comma-separated tokens, returning the
// byte ranges. The parsers walk tokens with nextToken instead, so they
// allocate no index slice.
func Tokenize(b []byte) [][]byte {
	var out [][]byte
	for start, end := nextToken(b, 0); start < end; start, end = nextToken(b, end) {
		out = append(out, b[start:end])
	}
	return out
}

// nextToken returns the bounds of the first token at or after i; start ==
// end == len(b) when none is left.
func nextToken(b []byte, i int) (start, end int) {
	for i < len(b) && isSep(b[i]) {
		i++
	}
	start = i
	for i < len(b) && !isSep(b[i]) {
		i++
	}
	return start, i
}

// countTokens returns how many tokens b holds.
func countTokens(b []byte) int {
	n := 0
	for start, end := nextToken(b, 0); start < end; start, end = nextToken(b, end) {
		n++
	}
	return n
}

// sepTable marks the token separators: space, newline, tab, CR, comma.
var sepTable = [256]bool{' ': true, '\n': true, '\t': true, '\r': true, ',': true}

func isSep(c byte) bool { return sepTable[c] }

// ParseError describes a malformed token.
type ParseError struct {
	Token string
	Err   error
}

func (e *ParseError) Error() string { return fmt.Sprintf("serial: bad token %q: %v", e.Token, e.Err) }

// TokenParser converts every token with one field kind — the shape of the
// paper's flagship workload (ASCII integer streams). It is stateless, so
// any record-aligned chunking works.
type TokenParser struct {
	Kind FieldKind
}

// Parse converts one chunk; malformed tokens panic via mustParse because
// generated inputs are well-formed by construction (tests cover the error
// path through ParseTokens).
func (p TokenParser) Parse(chunk []byte, final bool) []byte {
	out, err := ParseTokens(chunk, p.Kind)
	if err != nil {
		panic(err)
	}
	return out
}

// ParseTokens converts all tokens in chunk to the binary encoding of kind.
func ParseTokens(chunk []byte, kind FieldKind) ([]byte, error) {
	out := make([]byte, 0, countTokens(chunk)*kind.Width())
	for start, end := nextToken(chunk, 0); start < end; start, end = nextToken(chunk, end) {
		var err error
		out, err = appendField(out, chunk[start:end], kind)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxFastDigits is the longest digit run parseSmallInt accepts: any
// 18-digit decimal fits in an int64, so no overflow check is needed.
const maxFastDigits = 18

// parseSmallInt parses an optionally signed decimal of at most
// maxFastDigits digits. ok is false for anything else, which the caller
// hands to strconv.ParseInt so that it decides both value and error.
func parseSmallInt(tok []byte) (n int64, ok bool) {
	digits := tok
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > maxFastDigits {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if tok[0] == '-' {
		n = -n
	}
	return n, true
}

func appendField(out []byte, tok []byte, kind FieldKind) ([]byte, error) {
	if kind.IsFloat() {
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, &ParseError{Token: string(tok), Err: err}
		}
		if kind == FieldFloat32 {
			return binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(f))), nil
		}
		return binary.LittleEndian.AppendUint64(out, math.Float64bits(f)), nil
	}
	n, ok := parseSmallInt(tok)
	if !ok {
		var err error
		if n, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
			return nil, &ParseError{Token: string(tok), Err: err}
		}
	}
	if kind == FieldInt32 {
		return binary.LittleEndian.AppendUint32(out, uint32(int32(n))), nil
	}
	return binary.LittleEndian.AppendUint64(out, uint64(n)), nil
}

// RecordParser converts line-structured records whose tokens cycle
// through Fields — e.g. the SpMV triples "row col value" with Fields
// {Int32, Int32, Float64}. It is stateless across record-aligned chunks.
type RecordParser struct {
	Fields []FieldKind
}

// Parse converts one record-aligned chunk.
func (p RecordParser) Parse(chunk []byte, final bool) []byte {
	out, err := ParseRecords(chunk, p.Fields)
	if err != nil {
		panic(err)
	}
	return out
}

// ParseRecords converts tokens cycling through the field kinds. A counting
// pass checks the record count before any token is parsed and sizes the
// output exactly.
func ParseRecords(chunk []byte, fields []FieldKind) ([]byte, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("serial: RecordParser needs at least one field")
	}
	n := countTokens(chunk)
	if n%len(fields) != 0 {
		return nil, fmt.Errorf("serial: %d tokens do not fill records of %d fields", n, len(fields))
	}
	recWidth := 0
	for _, f := range fields {
		recWidth += f.Width()
	}
	out := make([]byte, 0, n/len(fields)*recWidth)
	i := 0
	for start, end := nextToken(chunk, 0); start < end; start, end = nextToken(chunk, end) {
		var err error
		out, err = appendField(out, chunk[start:end], fields[i])
		if err != nil {
			return nil, err
		}
		if i++; i == len(fields) {
			i = 0
		}
	}
	return out, nil
}

// FloatTextFraction estimates the fraction of input bytes that belong to
// float-formatted tokens for a record layout, given the average token
// widths. Used to parameterize the host parse-cost model per application.
func FloatTextFraction(fields []FieldKind, avgIntWidth, avgFloatWidth float64) float64 {
	if len(fields) == 0 {
		return 0
	}
	var intB, fltB float64
	for _, f := range fields {
		if f.IsFloat() {
			fltB += avgFloatWidth + 1 // token + separator
		} else {
			intB += avgIntWidth + 1
		}
	}
	if intB+fltB == 0 {
		return 0
	}
	return fltB / (intB + fltB)
}
