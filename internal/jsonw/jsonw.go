// Package jsonw writes indented JSON in one streaming pass. Its output is
// byte for byte what encoding/json's Encoder produces with
// SetIndent("", " ") for the same document: one space per nesting level,
// "{}" and "[]" for empty containers, `"key": value` pairs, HTML-escaped
// strings, encoding/json's float format and a trailing newline.
//
// The exporters build no intermediate object graph: they walk their own
// state and append each key and value as they reach it. Keys are written
// in the order the caller gives them, so a caller reproducing an
// encoding/json map emits them in sort.Strings order, and a caller
// reproducing a struct emits its fields in declaration order.
package jsonw

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
)

// flushAt is how many bytes the Writer gathers before writing them out:
// the series and trace artifacts run to megabytes, and streaming them
// through a fixed buffer keeps only this much of either in memory.
const flushAt = 64 << 10

// Writer appends one JSON document to its own buffer and writes the
// buffer to an io.Writer each time it passes flushAt bytes. The first
// error (a write error, or a NaN or infinite float) sticks: later calls do
// nothing and Close returns it. Output written before the error may
// already have reached the destination.
type Writer struct {
	w   io.Writer
	buf []byte
	// open holds one entry per unclosed object or array: true once the
	// container has an element, which decides the separator and how it
	// closes.
	open []bool
	// afterKey is set between a key and its value, whose separator the key
	// already wrote.
	afterKey bool
	err      error
}

// New returns a Writer that writes to w.
func New(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, flushAt+flushAt/4)}
}

// Close ends the document with encoding/json's trailing newline, writes
// out the buffer and returns the first error hit.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	w.buf = append(w.buf, '\n')
	w.flush()
	return w.err
}

// flush writes the buffer out and empties it.
func (w *Writer) flush() {
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
	}
	w.buf = w.buf[:0]
}

// BeginObject opens an object as the next value.
func (w *Writer) BeginObject() { w.begin('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.end('}') }

// BeginArray opens an array as the next value.
func (w *Writer) BeginArray() { w.begin('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.end(']') }

// Key writes the next object key; the next call writes its value.
func (w *Writer) Key(k string) {
	if w.err != nil {
		return
	}
	w.element()
	w.buf = appendQuoted(w.buf, k)
	w.buf = append(w.buf, ": "...)
	w.afterKey = true
}

// Field is an object key encoded ahead of time: the quoted name and the
// ": " that Key writes for it. A caller writing the same keys many times
// builds their Fields once.
type Field struct{ enc string }

// NewField returns key name's encoding.
func NewField(name string) Field {
	return Field{enc: string(append(appendQuoted(nil, name), ": "...))}
}

// Field writes the next object key from its pre-encoded form, as Key
// would write it; the next call writes its value.
func (w *Writer) Field(f Field) {
	if w.err != nil {
		return
	}
	w.element()
	w.buf = append(w.buf, f.enc...)
	w.afterKey = true
}

// Int writes an integer value.
func (w *Writer) Int(v int64) {
	if w.value() {
		w.buf = strconv.AppendInt(w.buf, v, 10)
	}
}

// Uint writes an unsigned integer value.
func (w *Writer) Uint(v uint64) {
	if w.value() {
		w.buf = strconv.AppendUint(w.buf, v, 10)
	}
}

// Bool writes true or false.
func (w *Writer) Bool(v bool) {
	if w.value() {
		w.buf = strconv.AppendBool(w.buf, v)
	}
}

// String writes a string value.
func (w *Writer) String(s string) {
	if w.value() {
		w.buf = appendQuoted(w.buf, s)
	}
}

// StringBytes writes the string value held in b, which the caller may
// reuse once it returns.
func (w *Writer) StringBytes(b []byte) {
	if w.value() {
		w.buf = appendQuoted(w.buf, b)
	}
}

// QuotedString writes a string value from its JSON encoding q, as Quote
// returns it: a caller writing one value many times escapes it once.
func (w *Writer) QuotedString(q string) {
	if w.value() {
		w.buf = append(w.buf, q...)
	}
}

// Float writes a float64 value the way encoding/json does: 'f' format,
// or 'e' for magnitudes below 1e-6 or from 1e21 up, with a two-digit
// negative exponent shortened to one ("1e-07" becomes "1e-7"). NaN and
// the infinities fail the document with *json.UnsupportedValueError.
func (w *Writer) Float(v float64) {
	if w.err != nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		return
	}
	w.value()
	// A shortcut around the shortest-digit search for the values the
	// Chrome trace writes most. A value that is the double nearest
	// a decimal k/10^6 with |k| < 10^15 (a picosecond count in
	// microseconds: every trace ts and dur) prints as that decimal: two
	// decimals of at most 15 significant digits never share a nearest
	// double, so no shorter decimal reaches it. The check m/1e6 == v
	// proves v is that double; zero, and so -0's sign, is left below.
	if m := math.Round(v * 1e6); math.Abs(m) < 1e15 && m/1e6 == v && v != 0 {
		w.buf = appendMillionths(w.buf, int64(m))
		return
	}
	f := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	b := strconv.AppendFloat(w.buf, v, f, -1, 64)
	if f == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.buf = b
}

// appendMillionths appends k/10^6 as a plain decimal without trailing
// zeros.
func appendMillionths(dst []byte, k int64) []byte {
	if k < 0 {
		dst, k = append(dst, '-'), -k
	}
	dst = strconv.AppendInt(dst, k/1e6, 10)
	frac := k % 1e6
	if frac == 0 {
		return dst
	}
	d := [7]byte{'.'}
	for i := 6; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(d)
	for d[n-1] == '0' {
		n--
	}
	return append(dst, d[:n]...)
}

// value prepares the next value's position and reports whether to write.
func (w *Writer) value() bool {
	if w.err != nil {
		return false
	}
	if w.afterKey {
		w.afterKey = false
	} else if len(w.open) > 0 {
		w.element()
	}
	return true
}

// element writes the separator and indentation before a container's next
// element: an array value or an object key.
func (w *Writer) element() {
	w.separate()
	w.buf = appendNewline(w.buf, len(w.open))
}

// separate writes the comma before a container's next element, unless it
// is the first. Between elements is where the buffer is written out once
// it passed flushAt.
func (w *Writer) separate() {
	if len(w.buf) >= flushAt {
		w.flush()
	}
	top := len(w.open) - 1
	if w.open[top] {
		w.buf = append(w.buf, ',')
	}
	w.open[top] = true
}

func (w *Writer) begin(c byte) {
	if w.value() {
		w.buf = append(w.buf, c)
		w.open = append(w.open, false)
	}
}

func (w *Writer) end(c byte) {
	if w.err != nil {
		return
	}
	top := len(w.open) - 1
	if w.open[top] {
		w.buf = appendNewline(w.buf, top)
	}
	w.open = w.open[:top]
	w.buf = append(w.buf, c)
}

const spaces = "                                "

// appendNewline appends a newline and depth levels of indentation.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > len(spaces); depth -= len(spaces) {
		dst = append(dst, spaces...)
	}
	return append(dst, spaces[:depth]...)
}

// asciiEscapes holds encoding/json's escape for each printable ASCII byte
// it escapes: the quote, the backslash and the HTML-escaped '<', '>' and
// '&'.
var asciiEscapes = [0x80]string{'"': `\"`, '\\': `\\`, '<': `\u003c`, '>': `\u003e`, '&': `\u0026`}

// appendQuoted appends s encoded as a JSON string, as Quote returns it.
func appendQuoted[S string | []byte](dst []byte, s S) []byte {
	base := len(dst)
	dst = append(dst, '"')
	done := 0 // s[:done] is in dst
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 {
			// Marshaling a string cannot fail: invalid UTF-8 becomes U+FFFD.
			b, _ := json.Marshal(string(s))
			return append(dst[:base], b...)
		}
		if esc := asciiEscapes[c]; esc != "" {
			dst = append(append(dst, s[done:i]...), esc...)
			done = i + 1
		}
	}
	dst = append(dst, s[done:]...)
	return append(dst, '"')
}

// Quote returns s encoded as a JSON string, the bytes Key and String
// write for it. Printable ASCII is copied, with encoding/json's escapes
// for '"', '\\' and the HTML-escaped '<', '>' and '&'. A string holding a
// control byte or any non-ASCII byte (which may be U+2028, U+2029 or
// invalid UTF-8) goes whole through json.Marshal, so those rules live in
// one place.
func Quote(s string) string { return string(appendQuoted(nil, s)) }
