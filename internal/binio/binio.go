// Package binio is the little-endian codec under the synopsis formats:
// the checkpoint, the snapshot body, the delta, the fleet sync frame and
// the aggregator state. A format is written as the sequence of its
// fields, in the order of its grammar comment, and read back the same
// way; the Writer and the Reader carry the byte count, the offset and
// the first error, so a format's code checks for failure once, at the
// end, instead of after every field.
//
// The Reader treats its input as untrusted: every failure — a short
// read, a count or a string over its bound, a value the format rejects
// — wraps the format's sentinel error and names the field and the byte
// offset where decoding stopped.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Writer writes little-endian fields through a buffer of its own.
// After the first error every write is a no-op; Flush reports it.
type Writer struct {
	w   io.Writer
	n   int64
	err error
	// buf[:end] is not yet written to w. A field is encoded in place:
	// no call, and no pointer store for the garbage collector to see.
	end int
	buf [4096]byte
}

// NewWriter returns a Writer that buffers into w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (w *Writer) flush() {
	if w.err == nil {
		n, err := w.w.Write(w.buf[:w.end])
		w.n += int64(n)
		w.err = err
	}
	w.end = 0
}

// U8, U16, U32 and U64 write one unsigned field. Each is written out
// in full so that it inlines.
func (w *Writer) U8(v uint8) {
	if w.end+1 > len(w.buf) {
		w.flush()
	}
	w.buf[w.end] = v
	w.end++
}

func (w *Writer) U16(v uint16) {
	if w.end+2 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint16(w.buf[w.end:], v)
	w.end += 2
}

func (w *Writer) U32(v uint32) {
	if w.end+4 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint32(w.buf[w.end:], v)
	w.end += 4
}

func (w *Writer) U64(v uint64) {
	if w.end+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.end:], v)
	w.end += 8
}

// Magic writes a format's magic bytes.
func (w *Writer) Magic(m string) {
	for len(m) > 0 {
		if w.end == len(w.buf) {
			w.flush()
		}
		n := copy(w.buf[w.end:], m)
		w.end += n
		m = m[n:]
	}
}

// String writes s as a u16 length and its bytes. A string longer than
// max is an error: the reader would reject it.
func (w *Writer) String(s string, max int) {
	if len(s) > max {
		if w.err == nil {
			w.err = fmt.Errorf("binio: %d-byte string %.16q exceeds limit %d", len(s), s, max)
		}
		return
	}
	w.U16(uint16(len(s)))
	w.Magic(s)
}

// Flush writes out the buffered bytes and returns the number of bytes
// written and the first error.
func (w *Writer) Flush() (int64, error) {
	w.flush()
	return w.n, w.err
}

// Reader reads little-endian fields from untrusted input through a
// buffer of its own. After the first failure every read returns zero
// values; Err reports it.
type Reader struct {
	r io.Reader
	// buf[pos:] is read ahead of the fields.
	buf []byte
	pos int
	// off is the offset of the next byte, at that of the field read
	// last — the offset a failure found in that field reports.
	off, at int64
	err     error
	bad     error
}

// NewReader returns a Reader over r whose failures wrap bad.
func NewReader(r io.Reader, bad error) *Reader {
	return &Reader{r: r, buf: make([]byte, 0, 4096), bad: bad}
}

// SetSentinel makes later failures wrap bad, for a format whose parts
// fail with different sentinels.
func (r *Reader) SetSentinel(bad error) { r.bad = bad }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a failure of the field read last, unless one is already
// recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", r.bad, fmt.Sprintf(format, args...), r.at)
	}
}

// next returns the n bytes of the field what, valid until the next
// read, or n zero bytes once reading has failed.
func (r *Reader) next(what string, n int) []byte {
	if r.err == nil && len(r.buf)-r.pos < n {
		r.fill(what, n)
	}
	if r.err != nil {
		return make([]byte, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	r.at = r.off
	r.off += int64(n)
	return b
}

// fill reads ahead until buf holds at least n unread bytes.
func (r *Reader) fill(what string, n int) {
	r.buf = slices.Grow(append(r.buf[:0], r.buf[r.pos:]...), n)
	r.pos = 0
	got, err := io.ReadAtLeast(r.r, r.buf[len(r.buf):cap(r.buf)], n-len(r.buf))
	r.buf = r.buf[:len(r.buf)+got]
	if err != nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d: %w", r.bad, what, r.off, err)
	}
}

// U8, U16, U32 and U64 read one unsigned field; what names it in a
// failure.
func (r *Reader) U8(what string) uint8 { return r.next(what, 1)[0] }

func (r *Reader) U16(what string) uint16 { return binary.LittleEndian.Uint16(r.next(what, 2)) }

func (r *Reader) U32(what string) uint32 { return binary.LittleEndian.Uint32(r.next(what, 4)) }

func (r *Reader) U64(what string) uint64 { return binary.LittleEndian.Uint64(r.next(what, 8)) }

// Count reads a u32 count and fails if it exceeds max, before it sizes
// anything.
func (r *Reader) Count(what string, max int) int {
	n := int(r.U32(what))
	if n > max {
		r.Fail("%s %d exceeds %d", what, n, max)
		return 0
	}
	return n
}

// String reads a string written by Writer.String, failing if its
// length exceeds max before the bytes are read.
func (r *Reader) String(what string, max int) string {
	n := int(r.U16(what))
	if n > max {
		r.Fail("%s of %d bytes exceeds limit %d", what, n, max)
	}
	if r.err != nil {
		return ""
	}
	return string(r.next(what, n))
}

// Magic reads len(m) bytes and fails unless they are m.
func (r *Reader) Magic(m string) {
	if got := r.next("magic", len(m)); r.err == nil && string(got) != m {
		r.Fail("bad magic %q", got)
	}
}

// End fails if any byte follows: the sender and the receiver disagree
// about the length, a framing bug that must not pass silently.
func (r *Reader) End() {
	if r.err == nil && r.pos == len(r.buf) {
		var b [1]byte
		if _, err := io.ReadFull(r.r, b[:]); err == io.EOF {
			return
		}
	}
	r.at = r.off
	r.Fail("trailing bytes")
}
