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
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// byte ranges. The parsers do not use it; they scan the chunk in place.
func Tokenize(b []byte) [][]byte {
	var out [][]byte
	for i := 0; i < len(b); {
		if sepTable[b[i]] {
			i++
			continue
		}
		end := tokenEnd(b, i)
		out = append(out, b[i:end])
		i = end
	}
	return out
}

// tokenEnd returns the index of the first separator at or after i, or
// len(b).
func tokenEnd(b []byte, i int) int {
	for i < len(b) && !sepTable[b[i]] {
		i++
	}
	return i
}

// countTokens returns how many tokens b holds: the non-separator bytes
// that follow a separator or start b.
func countTokens(b []byte) int {
	n, prev := 0, uint8(1)
	for _, c := range b {
		s := sepBits[c]
		n += int(prev &^ s)
		prev = s
	}
	return n
}

// sepTable marks the token separators: space, newline, tab, CR, comma.
var sepTable = [256]bool{' ': true, '\n': true, '\t': true, '\r': true, ',': true}

// sepBits is sepTable as 0/1, for branch-free counting.
var sepBits = [256]uint8{' ': 1, '\n': 1, '\t': 1, '\r': 1, ',': 1}

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

// Parse converts one chunk; malformed tokens panic because generated
// inputs are well-formed by construction (tests cover the error path
// through ParseTokens).
func (p TokenParser) Parse(chunk []byte, final bool) []byte {
	out, err := ParseTokens(chunk, p.Kind)
	if err != nil {
		panic(err)
	}
	return out
}

// ParseTokens converts all tokens in chunk to the binary encoding of kind
// into a fresh slice of exactly the output size.
func ParseTokens(chunk []byte, kind FieldKind) ([]byte, error) {
	out, err := AppendTokens(make([]byte, 0, countTokens(chunk)*kind.Width()), chunk, kind)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendTokens appends the binary encoding of every token in chunk,
// converted as kind, to dst and returns the extended slice. It walks the
// chunk once and allocates nothing when dst has room. On a malformed token
// it returns dst at its original length and a *ParseError for the first
// bad token.
func AppendTokens(dst, chunk []byte, kind FieldKind) ([]byte, error) {
	base := len(dst)
	isInt := !kind.IsFloat()
	for i := 0; i < len(chunk); {
		if sepTable[chunk[i]] {
			i++
			continue
		}
		if isInt {
			// The common token and its separator in one step.
			if v, end, ok := wordToken(chunk, i); ok {
				dst = appendInt(dst, v, kind)
				i = end + 1
				continue
			}
		}
		var err error
		if dst, i, err = appendToken(dst, chunk, i, kind); err != nil {
			return dst[:base], err
		}
	}
	return dst, nil
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

// ParseRecords converts tokens cycling through the field kinds into a
// fresh slice of exactly the output size.
func ParseRecords(chunk []byte, fields []FieldKind) ([]byte, error) {
	if len(fields) == 0 {
		return nil, errNoFields
	}
	n := countTokens(chunk)
	recWidth := 0
	for _, f := range fields {
		recWidth += f.Width()
	}
	out, err := AppendRecords(make([]byte, 0, n/len(fields)*recWidth), chunk, fields)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendRecords appends the binary encoding of tokens cycling through the
// field kinds to dst and returns the extended slice, in one walk over the
// chunk. Errors leave dst at its original length. A token count that does
// not fill whole records is reported in preference to a malformed token,
// so after a bad token the walk only counts the rest.
func AppendRecords(dst, chunk []byte, fields []FieldKind) ([]byte, error) {
	if len(fields) == 0 {
		return dst, errNoFields
	}
	base := len(dst)
	var bad error
	n, f := 0, 0
	for i := 0; i < len(chunk); {
		if sepTable[chunk[i]] {
			i++
			continue
		}
		if bad == nil && !fields[f].IsFloat() {
			// The common integer token and its separator in one step.
			if v, end, ok := wordToken(chunk, i); ok {
				n++
				dst = appendInt(dst, v, fields[f])
				i = end + 1
				if f++; f == len(fields) {
					f = 0
				}
				continue
			}
		}
		n++
		if bad != nil {
			i = tokenEnd(chunk, i)
			continue
		}
		dst, i, bad = appendToken(dst, chunk, i, fields[f])
		if f++; f == len(fields) {
			f = 0
		}
	}
	if n%len(fields) != 0 {
		return dst[:base], fmt.Errorf("serial: %d tokens do not fill records of %d fields", n, len(fields))
	}
	if bad != nil {
		return dst[:base], bad
	}
	return dst, nil
}

var errNoFields = errors.New("serial: RecordParser needs at least one field")

// appendToken converts the token that starts at chunk[i], which is not a
// separator, appends its encoding to dst and returns the index just past
// it. On error dst comes back unchanged. Callers have already tried an
// integer token with wordToken.
func appendToken(dst, chunk []byte, i int, kind FieldKind) ([]byte, int, error) {
	if kind.IsFloat() {
		end := tokenEnd(chunk, i)
		f, err := strconv.ParseFloat(string(chunk[i:end]), 64)
		if err != nil {
			return dst, end, &ParseError{Token: string(chunk[i:end]), Err: err}
		}
		if kind == FieldFloat32 {
			return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(f))), end, nil
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f)), end, nil
	}
	n, end, ok := scanInt(chunk, i)
	if !ok {
		end = tokenEnd(chunk, end)
		var err error
		if n, err = strconv.ParseInt(string(chunk[i:end]), 10, 64); err != nil {
			return dst, end, &ParseError{Token: string(chunk[i:end]), Err: err}
		}
	}
	return appendInt(dst, n, kind), end, nil
}

// appendInt appends n encoded as the integer kind.
func appendInt(dst []byte, n int64, kind FieldKind) []byte {
	if kind == FieldInt32 {
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(n)))
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// wordToken reads the common token at b[i]: an optional '-', then 1-16
// digits in at most two 8-byte words, then a separator, which is b[end].
// Sixteen digits cannot overflow an int64. Anything else, including a
// token too near the end of b to load its words and the byte past them,
// returns ok false, and scanInt takes it.
func wordToken(b []byte, i int) (v int64, end int, ok bool) {
	neg := b[i] == '-'
	if neg {
		i++
	}
	if i+8 >= len(b) {
		return 0, 0, false
	}
	y := binary.LittleEndian.Uint64(b[i:]) ^ 0x3030303030303030
	n := int(digitRun(y))
	if n == 0 {
		return 0, 0, false
	}
	u := eightDigits(y << (64 - 8*uint(n)))
	if n == 8 && !sepTable[b[i+8]] {
		// The run goes on into the next word.
		if i+16 >= len(b) {
			return 0, 0, false
		}
		z := binary.LittleEndian.Uint64(b[i+8:]) ^ 0x3030303030303030
		m := digitRun(z)
		u = u*pow10[m] + eightDigits(z<<(64-8*m))
		n += int(m)
	}
	if !sepTable[b[i+n]] {
		return 0, 0, false
	}
	if v = int64(u); neg {
		v = -v
	}
	return v, i + n, true
}

// maxFastDigits is the longest digit run scanInt accepts: any 18-digit
// decimal fits in an int64, so no overflow check is needed.
const maxFastDigits = 18

// scanInt parses the optionally signed decimal that starts at b[i]. ok
// reports a fast-path token: 1 to maxFastDigits digits that end at a
// separator or at the end of b, with end just past them. Anything else
// returns ok false with end somewhere inside the token; the caller hands
// the whole token to strconv.ParseInt, which decides value and error.
//
// The digit run is read 8 bytes at a time (SWAR): after XOR with '0' a
// digit byte holds 0-9, so a byte is a non-digit exactly when its high
// nibble, or the high nibble of byte+6, is set. A carry out of byte+6
// only comes from a non-digit byte, so the lowest flagged byte, which
// bits.TrailingZeros64 finds, is exact. The digits before it are shifted
// to the top of the word, where leading zero bytes do not change the
// value, and combined by eightDigits.
func scanInt(b []byte, i int) (n int64, end int, ok bool) {
	neg := false
	if c := b[i]; c == '-' || c == '+' {
		neg = c == '-'
		i++
	}
	start := i
	var v uint64
	for i+8 <= len(b) {
		y := binary.LittleEndian.Uint64(b[i:]) ^ 0x3030303030303030
		k := digitRun(y)
		v = v*pow10[k] + eightDigits(y<<(64-8*k))
		i += int(k)
		if k < 8 {
			break
		}
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + uint64(d)
	}
	if d := i - start; d == 0 || d > maxFastDigits || (i < len(b) && !sepTable[b[i]]) {
		return 0, i, false
	}
	n = int64(v)
	if neg {
		n = -n
	}
	return n, i, true
}

// digitRun returns how many of the eight bytes of y, a text word XORed
// with '0' in every byte, are digits before the first non-digit.
func digitRun(y uint64) uint {
	return uint(bits.TrailingZeros64(((y+0x0606060606060606)|y)&0xF0F0F0F0F0F0F0F0)) >> 3
}

// pow10[k] is 10^k for the k digits one SWAR word contributes.
var pow10 = [9]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// eightDigits returns the value of eight digits, one per byte with the
// most significant in the lowest byte, in three multiplies: the first
// turns adjacent digits into two-digit values, and two more scale the
// four pairs by 10^6, 10^4, 10^2 and 1 in 32-bit lanes whose upper halves
// sum to the result.
func eightDigits(y uint64) uint64 {
	y = y*10 + y>>8
	const mask = 0x000000FF000000FF
	return ((y&mask)*(100+1000000<<32) + (y>>16&mask)*(1+10000<<32)) >> 32
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
