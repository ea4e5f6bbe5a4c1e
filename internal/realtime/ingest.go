package realtime

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"daccor/internal/blktrace"
)

// Ingest decode: the ingest route's body is read into a pooled byte
// buffer and scanned once, by hand, into a pooled []blktrace.Event —
// no reflection and no per-event allocation. The scanner accepts
// exactly the bodies encoding/json accepted when it decoded the route
// into
//
//	struct{ Events []struct{ Time int64; PID uint32; Op string; Block uint64; Len uint32 } }
//
// with DisallowUnknownFields, quirks included (the fuzz test holds it
// to that decoder):
//
//   - a key matches a field exactly or, failing that, by bytes.EqualFold
//     on the unescaped key ("EVENTS", "eventſ" and "blocK" all match);
//   - null is accepted for any field and leaves it as it was; as an
//     array element it leaves the element as it was (a zero event on a
//     fresh array); "events": null empties the batch;
//   - a repeated key overwrites, and a repeated "events" array decodes
//     element-wise into what the previous one left: element i keeps the
//     fields the new element i does not set;
//   - numbers are integer literals that fit the field: no fraction, no
//     exponent, and no sign on an unsigned field (not even -0);
//   - escapes, surrogate pairs and invalid UTF-8 in strings unquote the
//     way encoding/json unquotes them.
//
// The one deliberate difference: anything but whitespace after the
// top-level value is rejected, where encoding/json's Decoder silently
// ignored it (a second concatenated batch was dropped).
//
// Errors keep their old precedence and text. A syntax or type error
// (any scanning failure) comes first, prefixed "invalid JSON body: ";
// then an empty batch; then an oversized one; then the lowest-indexed
// invalid event with the per-event messages. Scanning the whole body
// before validating the decoded slice is what gives that order.

// Pooled buffers: a body buffer that grew past maxPooledBody is dropped
// rather than pooled, so one large request cannot pin its body in
// memory; the event slice is bounded by MaxIngestBatch anyway.
const maxPooledBody = 1 << 20

// ingestBuffers is one request's scratch: the raw body and the decoded
// events. Engine.SubmitBatch copies the events into the device's ring
// and retains nothing, so both go back to the pool after the submit.
type ingestBuffers struct {
	body []byte
	evs  []blktrace.Event
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBuffers) }}

func getIngestBuffers() *ingestBuffers { return ingestPool.Get().(*ingestBuffers) }

func (b *ingestBuffers) release() {
	if cap(b.body) > maxPooledBody {
		b.body = nil
	}
	ingestPool.Put(b)
}

// decode reads the whole body from r into the pooled buffer and decodes
// it. The returned events alias b's slice: valid until b.release.
func (b *ingestBuffers) decode(r io.Reader) ([]blktrace.Event, error) {
	body, err := readAll(b.body[:0], r)
	b.body = body
	if err != nil {
		return nil, fmt.Errorf("invalid JSON body: %v", err)
	}
	evs, err := decodeIngest(body, b.evs)
	b.evs = evs[:0]
	return evs, err
}

// readAll appends r's remaining bytes to dst, growing it as needed.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Op values the scanner parks in Event.Op until validation: the op
// string was empty (or never set), or set to something other than
// "read" and "write".
const (
	opEmpty blktrace.Op = 0xfe
	opOther blktrace.Op = 0xff
)

var errTrailingData = errors.New("invalid JSON body: trailing data after the top-level object")

// decodeIngest decodes and validates one ingest body into dst's backing
// array (grown up to MaxIngestBatch as needed). On error the returned
// slice is still dst's (possibly grown) buffer, emptied, for reuse.
func decodeIngest(body []byte, dst []blktrace.Event) ([]blktrace.Event, error) {
	s := ingestScanner{b: body, evs: dst[:0], want: -1}
	if err := s.scan(); err != nil {
		return s.evs[:0], err
	}
	switch {
	case s.n == 0:
		return s.evs[:0], errors.New("events must be a non-empty array")
	case s.n > MaxIngestBatch:
		return s.evs[:0], fmt.Errorf("batch too large: %d events (max %d)", s.n, MaxIngestBatch)
	}
	evs := s.evs[:s.n]
	for i := range evs {
		switch evs[i].Op {
		case opEmpty:
			return s.evs[:0], opError(i, "")
		case opOther:
			return s.evs[:0], opError(i, s.opAt(i))
		}
		if err := evs[i].Validate(); err != nil {
			return s.evs[:0], fmt.Errorf("event %d: %v", i, err)
		}
	}
	return evs, nil
}

func opError(i int, op string) error {
	return fmt.Errorf("event %d: op must be \"read\" or \"write\" (got %q)", i, op)
}

// ingestScanner is one pass over an ingest body.
type ingestScanner struct {
	b []byte
	i int // read offset into b

	// evs holds every element decoded since "events" was last reset:
	// a repeated "events" array decodes into it element-wise, so its
	// length is the high-water mark, capped at MaxIngestBatch. n is the
	// length of the last array, counted past the cap.
	evs   []blktrace.Event
	n     int
	spare blktrace.Event // sink for elements past MaxIngestBatch

	key []byte // unescaped-key scratch

	// want >= 0 asks the scan to record, in wantOp, the op string last
	// assigned to element want: the error path's second pass, which
	// recovers the text of an op the first pass only classified.
	want   int
	wantOp string
}

// opAt rescans the body to recover element i's op string. Only the
// error path calls it; the body already scanned cleanly once.
func (s *ingestScanner) opAt(i int) string {
	r := ingestScanner{b: s.b, evs: s.evs[:0], want: i}
	_ = r.scan()
	return r.wantOp
}

func (s *ingestScanner) syntax(what string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("invalid JSON body: unexpected end of body, %s", what)
	}
	return fmt.Errorf("invalid JSON body: unexpected %q at offset %d, %s", s.b[s.i], s.i, what)
}

func (s *ingestScanner) scan() error {
	s.ws()
	switch {
	case s.null():
	case s.at('{'):
		if err := s.object(); err != nil {
			return err
		}
	default:
		return s.syntax("want the body object")
	}
	s.ws()
	if s.i < len(s.b) {
		return errTrailingData
	}
	return nil
}

func (s *ingestScanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

func (s *ingestScanner) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// null consumes a null literal, reporting whether there was one.
func (s *ingestScanner) null() bool {
	if s.at('n') && len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// member advances to the next member of the object being scanned —
// first right after its '{' — and returns the member's raw key with the
// offset on its value, or done past the closing '}'.
func (s *ingestScanner) member(first bool) (key []byte, esc, done bool, err error) {
	s.ws()
	switch {
	case s.at('}'):
		s.i++
		return nil, false, true, nil
	case first:
	case s.at(','):
		s.i++
		s.ws()
	default:
		return nil, false, false, s.syntax("want ',' or '}' after an object value")
	}
	if !s.at('"') {
		return nil, false, false, s.syntax("want an object key")
	}
	if key, esc, err = s.str(); err != nil {
		return nil, false, false, err
	}
	s.ws()
	if !s.at(':') {
		return nil, false, false, s.syntax("want ':' after an object key")
	}
	s.i++
	s.ws()
	return key, esc, false, nil
}

// str consumes a string literal and returns its raw contents (between
// the quotes) and whether they hold escapes.
func (s *ingestScanner) str() (raw []byte, esc bool, err error) {
	b := s.b
	start := s.i + 1
	for i := start; i < len(b); i++ {
		if c := b[i]; c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], esc, nil
		case c == '\\':
			esc = true
			i++
			if i >= len(b) {
				break // a trailing backslash: the loop ends unterminated
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || hex4(b[i+1:i+5]) < 0 {
					s.i = i
					return nil, false, s.syntax("want four hex digits after \\u")
				}
				i += 4
			default:
				s.i = i
				return nil, false, s.syntax("invalid escape")
			}
		case c < 0x20:
			s.i = i
			return nil, false, s.syntax("control character in string")
		}
	}
	s.i = len(b)
	return nil, false, s.syntax("unterminated string")
}

// match reports whether a raw key names field under encoding/json's
// rule, bytes.EqualFold on the unescaped key. Callers try the exact
// match first: it is the common case and needs no unescaping.
func (s *ingestScanner) match(raw []byte, esc bool, field string) bool {
	if !esc {
		return bytes.EqualFold(raw, []byte(field))
	}
	s.key = appendUnquoted(s.key[:0], raw)
	return bytes.EqualFold(s.key, []byte(field))
}

func (s *ingestScanner) unknown(raw []byte, esc bool) error {
	if esc {
		raw = appendUnquoted(nil, raw)
	}
	return fmt.Errorf("invalid JSON body: unknown field %q", raw)
}

// object decodes the body object at s.i.
func (s *ingestScanner) object() error {
	s.i++ // '{'
	for first := true; ; first = false {
		key, esc, done, err := s.member(first)
		switch {
		case err != nil:
			return err
		case done:
			return nil
		case string(key) != "events" && !s.match(key, esc, "events"):
			return s.unknown(key, esc)
		}
		if err := s.events(); err != nil {
			return err
		}
	}
}

// reset empties the batch the way encoding/json's null or [] replaced
// the slice: nothing from earlier arrays survives.
func (s *ingestScanner) reset() {
	s.evs = s.evs[:0]
	s.n = 0
	s.wantOp = ""
}

func (s *ingestScanner) events() error {
	if s.null() {
		s.reset()
		return nil
	}
	if !s.at('[') {
		return s.syntax(`want an array for "events"`)
	}
	s.i++
	s.ws()
	if s.at(']') {
		s.i++
		s.reset()
		return nil
	}
	n := 0
	for {
		var ev *blktrace.Event
		switch {
		case n < len(s.evs):
			ev = &s.evs[n]
		case n < MaxIngestBatch:
			s.evs = append(s.evs, blktrace.Event{Op: opEmpty})
			ev = &s.evs[n]
			if n == s.want {
				s.wantOp = ""
			}
		default:
			ev = &s.spare
		}
		switch {
		case s.null():
		case s.at('{'):
			if err := s.event(ev, n); err != nil {
				return err
			}
		default:
			return s.syntax("want an event object")
		}
		n++
		s.ws()
		switch {
		case s.at(','):
			s.i++
			s.ws()
		case s.at(']'):
			s.i++
			s.n = n
			return nil
		default:
			return s.syntax("want ',' or ']' after an event")
		}
	}
}

// event decodes one event object into ev, over whatever ev holds.
func (s *ingestScanner) event(ev *blktrace.Event, idx int) error {
	s.i++ // '{'
	for first := true; ; first = false {
		key, esc, done, err := s.member(first)
		if err != nil || done {
			return err
		}
		f := eventField(key)
		if f < 0 {
			for i, name := range eventFields {
				if s.match(key, esc, name) {
					f = i
					break
				}
			}
			if f < 0 {
				return s.unknown(key, esc)
			}
		}
		if s.null() {
			continue
		}
		var v uint64
		switch f {
		case fieldTime:
			ev.Time, err = s.signed()
		case fieldPID:
			v, err = s.unsigned(32)
			ev.PID = uint32(v)
		case fieldOp:
			err = s.op(ev, idx)
		case fieldBlock:
			ev.Extent.Block, err = s.unsigned(64)
		case fieldLen:
			v, err = s.unsigned(32)
			ev.Extent.Len = uint32(v)
		}
		if err != nil {
			return err
		}
	}
}

const (
	fieldTime = iota
	fieldPID
	fieldOp
	fieldBlock
	fieldLen
)

var eventFields = [...]string{"time", "pid", "op", "block", "len"}

// eventField is the exact-match fast path of the key lookup.
func eventField(key []byte) int {
	switch string(key) {
	case "time":
		return fieldTime
	case "pid":
		return fieldPID
	case "op":
		return fieldOp
	case "block":
		return fieldBlock
	case "len":
		return fieldLen
	}
	return -1
}

func (s *ingestScanner) op(ev *blktrace.Event, idx int) error {
	if !s.at('"') {
		return s.syntax(`want a string for "op"`)
	}
	raw, esc, err := s.str()
	if err != nil {
		return err
	}
	if esc {
		s.key = appendUnquoted(s.key[:0], raw)
		raw = s.key
	}
	switch string(raw) {
	case "read":
		ev.Op = blktrace.OpRead
	case "write":
		ev.Op = blktrace.OpWrite
	case "":
		ev.Op = opEmpty
	default:
		ev.Op = opOther
	}
	if idx == s.want {
		if !esc {
			raw = appendUnquoted(nil, raw) // invalid UTF-8 becomes U+FFFD
		}
		s.wantOp = string(raw)
	}
	return nil
}

// digits consumes an integer literal: JSON's number grammar minus the
// fraction and exponent, which no field accepts. It returns the sign
// and the magnitude, rejecting a magnitude past 64 bits.
func (s *ingestScanner) digits() (neg bool, v uint64, err error) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if v > (math.MaxUint64-uint64(d))/10 {
				s.i = i
				return false, 0, s.syntax("integer overflows 64 bits")
			}
			v = v*10 + uint64(d)
		}
	default:
		s.i = i
		return false, 0, s.syntax("want an integer")
	}
	s.i = i
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E' || (b[i] >= '0' && b[i] <= '9')) {
		return false, 0, s.syntax("want an integer literal")
	}
	return neg, v, nil
}

func (s *ingestScanner) signed() (int64, error) {
	neg, v, err := s.digits()
	switch {
	case err != nil:
		return 0, err
	case !neg && v <= math.MaxInt64:
		return int64(v), nil
	case neg && v <= 1<<63:
		return int64(-v), nil // -(1<<63) wraps to MinInt64
	}
	return 0, s.syntax("integer overflows int64")
}

func (s *ingestScanner) unsigned(bits int) (uint64, error) {
	neg, v, err := s.digits()
	switch {
	case err != nil:
		return 0, err
	case neg:
		return 0, s.syntax("want an unsigned integer")
	case bits < 64 && v >= 1<<bits:
		return 0, s.syntax(fmt.Sprintf("integer overflows uint%d", bits))
	}
	return v, nil
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendUnquoted appends the unescaped form of a string literal's raw
// contents, already checked by str, exactly as encoding/json unquotes
// it: a \u escape that is not half of a valid surrogate pair and every
// byte of invalid UTF-8 become U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if len(raw)-i >= 6 && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						dst = utf8.AppendRune(dst, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default: // '"', '\\', '/'
				c = e
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}
