package binio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

var errBad = errors.New("bad test format")

// writeSample writes enough fields of every kind to cross the Writer's
// and the Reader's buffer boundaries several times.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST")
	for i := 0; i < 1000; i++ {
		w.U8(uint8(i))
		w.U16(uint16(i * 3))
		w.U32(uint32(i * 5))
		w.U64(uint64(i) << 40)
		w.String(strings.Repeat("x", i%7), 8)
	}
	n, err := w.Flush()
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("Flush = %d, %v; wrote %d bytes", n, err, buf.Len())
	}
	return buf.Bytes()
}

func readSample(r *Reader) {
	r.Magic("TEST")
	for i := 0; i < 1000 && r.Err() == nil; i++ {
		if r.U8("u8") != uint8(i) || r.U16("u16") != uint16(i*3) ||
			r.U32("u32") != uint32(i*5) || r.U64("u64") != uint64(i)<<40 ||
			r.String("s", 8) != strings.Repeat("x", i%7) {
			r.Fail("field %d read back wrong", i)
		}
	}
	r.End()
}

func TestRoundTrip(t *testing.T) {
	data := writeSample(t)
	// One byte per Read: every field straddles a refill somewhere.
	for _, in := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		r := NewReader(in, errBad)
		readSample(r)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// Every failure wraps the sentinel and names an offset; a truncation
// wraps the io error too.
func TestFailures(t *testing.T) {
	data := writeSample(t)
	for _, cut := range []int{0, 3, 4, 5, 100, len(data) / 2, len(data) - 1} {
		r := NewReader(bytes.NewReader(data[:cut]), errBad)
		readSample(r)
		err := r.Err()
		if !errors.Is(err, errBad) || !(errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) ||
			!strings.Contains(err.Error(), "offset") {
			t.Errorf("truncation at %d: %v", cut, err)
		}
	}
	for name, in := range map[string][]byte{
		"trailing byte": append(bytes.Clone(data), 0),
		"bad magic":     append([]byte("TESX"), data[4:]...),
	} {
		r := NewReader(bytes.NewReader(in), errBad)
		readSample(r)
		if err := r.Err(); !errors.Is(err, errBad) || !strings.Contains(err.Error(), "offset") {
			t.Errorf("%s: %v", name, err)
		}
	}
	var u32 [4]byte
	u32[0] = 9
	if r := NewReader(bytes.NewReader(u32[:]), errBad); r.Count("count", 8) != 0 || !errors.Is(r.Err(), errBad) {
		t.Errorf("count over its bound: %v", r.Err())
	}
	if r := NewReader(bytes.NewReader([]byte{9, 0}), errBad); r.String("id", 8) != "" || !errors.Is(r.Err(), errBad) {
		t.Errorf("string over its bound: %v", r.Err())
	}
	w := NewWriter(io.Discard)
	w.String("123456789", 8)
	if _, err := w.Flush(); err == nil {
		t.Error("Writer accepted a string over its bound")
	}
}
