package serial

import "bytes"

// AlignRecords cuts a text stream at record (newline) boundaries so a
// chunk-structured parser sees whole records. *carry holds the partial
// trailing record between calls; the result is the carry followed by
// chunk, up to and including the chunk's last newline, and the rest
// becomes the new carry. With final everything is flushed. A non-final
// call that completes no record returns nil.
//
// With nothing carried the result aliases chunk and nothing is copied;
// otherwise carry and chunk are joined in *scratch, which is reused. The
// result is valid until the next call or until chunk is overwritten.
// *carry is reused in place and never aliases chunk or *scratch, so the
// caller may overwrite both once it has finished with the result.
func AlignRecords(carry, scratch *[]byte, chunk []byte, final bool) []byte {
	buf := chunk
	if len(*carry) > 0 {
		*scratch = append(append((*scratch)[:0], *carry...), chunk...)
		buf = *scratch
	}
	if final {
		*carry = (*carry)[:0]
		return buf
	}
	i := bytes.LastIndexByte(buf, '\n')
	*carry = append((*carry)[:0], buf[i+1:]...)
	if i < 0 {
		return nil
	}
	return buf[:i+1]
}
