// Package codec is the binary encoding of every byte string that
// crosses a trust boundary: report message, measurement, migration
// snapshot and digest body. Integers are fixed-width little-endian, a
// bool one byte 0 or 1, a byte string or string a uint64 length and its
// bytes, a list a uint64 count and its elements. A Reader keeps its
// first error and refuses every byte string a Writer could not have
// produced — an unknown version, a length past the bytes left, a bool
// byte other than 0 or 1, trailing bytes — so each value has exactly
// one accepted encoding.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decoding errors, each wrapped with the offset it was found at.
var (
	ErrVersion  = errors.New("codec: unknown version")
	ErrLength   = errors.New("codec: length exceeds the bytes left")
	ErrBool     = errors.New("codec: bool byte is neither 0 nor 1")
	ErrTrailing = errors.New("codec: trailing bytes after the value")
)

var le = binary.LittleEndian

// Writer appends an encoding to Buf, which may start non-empty.
type Writer struct{ Buf []byte }

// Raw appends p as is: a fixed-size field or a constant tag.
func (w *Writer) Raw(p []byte)  { w.Buf = append(w.Buf, p...) }
func (w *Writer) U8(v uint8)    { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16)  { w.Buf = le.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32)  { w.Buf = le.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)  { w.Buf = le.AppendUint64(w.Buf, v) }
func (w *Writer) Blob(p []byte) { w.U64(uint64(len(p))); w.Raw(p) }
func (w *Writer) Str(s string)  { w.U64(uint64(len(s))); w.Buf = append(w.Buf, s...) }

// Bool appends 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	w.U8(b)
}

// Reader decodes from a byte slice. After the first failure every read
// returns zeros, so a decoder reads all its fields and checks Close.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader starts decoding b, whose first byte must be version.
func NewReader(b []byte, version uint8) *Reader {
	r := &Reader{buf: b}
	if r.U8() != version {
		r.fail(ErrVersion, 0)
	}
	return r
}

func (r *Reader) fail(kind error, at int) {
	if r.err == nil {
		r.err = fmt.Errorf("%w (at byte %d)", kind, at)
	}
}

// take returns the next n bytes, aliasing the input — or, once
// decoding has failed, min(n, 8) zero bytes.
func (r *Reader) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.fail(ErrLength, r.off)
	}
	if r.err != nil {
		return make([]byte, min(n, 8))
	}
	p := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return p
}

// Raw fills dst from the next len(dst) bytes.
func (r *Reader) Raw(dst []byte) { copy(dst, r.take(uint64(len(dst)))) }
func (r *Reader) U8() uint8      { return r.take(1)[0] }
func (r *Reader) U16() uint16    { return le.Uint16(r.take(2)) }
func (r *Reader) U32() uint32    { return le.Uint32(r.take(4)) }
func (r *Reader) U64() uint64    { return le.Uint64(r.take(8)) }
func (r *Reader) Str() string    { return string(r.Blob()) }

// Blob reads a byte string, aliasing the input; nil when empty.
func (r *Reader) Blob() []byte {
	if p := r.take(r.U64()); len(p) > 0 && r.err == nil {
		return p
	}
	return nil
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail(ErrBool, r.off-1)
	}
	return v == 1
}

// List reads a count and then that many elements with next; nil when
// empty. Each element takes at least minSize (> 0) bytes, so a count
// whose elements cannot fit in the bytes left is ErrLength before
// anything is allocated for it.
func List[T any](r *Reader, minSize int, next func() T) []T {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.buf)-r.off)/uint64(minSize) {
		r.fail(ErrLength, r.off-8)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// Close ends decoding: the first error, or ErrTrailing if bytes are
// left.
func (r *Reader) Close() error {
	if r.off != len(r.buf) {
		r.fail(ErrTrailing, r.off)
	}
	return r.err
}
