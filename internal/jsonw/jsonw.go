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
	"bufio"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
)

// Writer appends one JSON document to an io.Writer through its own
// bufio.Writer. The first error (a write error, or a NaN or infinite
// float) sticks: later calls do nothing and Close returns it. Output
// written before the error may already have reached the destination.
type Writer struct {
	bw *bufio.Writer
	// open holds one entry per unclosed object or array: true once the
	// container has an element, which decides the separator and how it
	// closes.
	open []bool
	// afterKey is set between Key and its value, whose separator Key
	// already wrote.
	afterKey bool
	err      error
}

// New returns a Writer that writes to w. The 64 KiB buffer suits the
// series and trace artifacts, which run to megabytes.
func New(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Close ends the document with encoding/json's trailing newline, flushes
// the buffer and returns the first error hit.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	w.bw.WriteByte('\n')
	return w.bw.Flush()
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
	w.quote(k)
	w.bw.WriteString(": ")
	w.afterKey = true
}

// QuotedKey writes the next object key from its JSON encoding q, as
// Quote returns it: a caller writing one key many times escapes it once.
func (w *Writer) QuotedKey(q string) {
	if w.err != nil {
		return
	}
	w.element()
	w.bw.WriteString(q)
	w.bw.WriteString(": ")
	w.afterKey = true
}

// Int writes an integer value.
func (w *Writer) Int(v int64) {
	if w.value() {
		w.bw.Write(strconv.AppendInt(w.bw.AvailableBuffer(), v, 10))
	}
}

// Uint writes an unsigned integer value.
func (w *Writer) Uint(v uint64) {
	if w.value() {
		w.bw.Write(strconv.AppendUint(w.bw.AvailableBuffer(), v, 10))
	}
}

// Bool writes true or false.
func (w *Writer) Bool(v bool) {
	if w.value() {
		w.bw.WriteString(strconv.FormatBool(v))
	}
}

// String writes a string value.
func (w *Writer) String(s string) {
	if w.value() {
		w.quote(s)
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
	f := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	b := strconv.AppendFloat(w.bw.AvailableBuffer(), v, f, -1, 64)
	if f == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.bw.Write(b)
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
	top := len(w.open) - 1
	if w.open[top] {
		w.bw.WriteByte(',')
	}
	w.open[top] = true
	w.newline(len(w.open))
}

func (w *Writer) begin(c byte) {
	if w.value() {
		w.bw.WriteByte(c)
		w.open = append(w.open, false)
	}
}

func (w *Writer) end(c byte) {
	if w.err != nil {
		return
	}
	top := len(w.open) - 1
	if w.open[top] {
		w.newline(top)
	}
	w.open = w.open[:top]
	w.bw.WriteByte(c)
}

const spaces = "                                "

func (w *Writer) newline(depth int) {
	w.bw.WriteByte('\n')
	for ; depth > len(spaces); depth -= len(spaces) {
		w.bw.WriteString(spaces)
	}
	w.bw.WriteString(spaces[:depth])
}

// quote writes s as a JSON string.
func (w *Writer) quote(s string) {
	if needsEscape(s) {
		w.bw.WriteString(Quote(s))
		return
	}
	w.bw.WriteByte('"')
	w.bw.WriteString(s)
	w.bw.WriteByte('"')
}

// Quote returns s encoded as a JSON string, the bytes Key and String
// write for it. Printable ASCII that encoding/json leaves alone is
// copied; anything else (control bytes, '"', '\\', the HTML-escaped '<',
// '>' and '&', and every non-ASCII byte, which may be U+2028, U+2029 or
// invalid UTF-8) goes through json.Marshal, so the escaping rules live in
// one place.
func Quote(s string) string {
	if !needsEscape(s) {
		return `"` + s + `"`
	}
	// Marshaling a string cannot fail: invalid UTF-8 becomes U+FFFD.
	b, _ := json.Marshal(s)
	return string(b)
}

func needsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return true
		}
	}
	return false
}
