package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer of the system.
// Spans live in memory until the run ends; Parent links a call to the
// operation that caused it and Req is shared by all spans of one
// operation (one probe, one fleet cycle), so a dump can be regrouped
// per request.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span ID, -1 for a root
	Req    int64  `json:"req"`
	Count  int64  `json:"count"` // work done inside the span (events, bytes, rules)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer hands every generator goroutine its own buffer, so recording
// takes no lock on the measured path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// thread returns a buffer owned by the calling goroutine. A nil tracer
// yields a nil buffer, whose methods do nothing: the untraced pass runs
// the same code with tracing compiled down to a nil check.
func (t *tracer) thread() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	b.base = len(t.bufs) << 32
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spanBuf records the spans of one goroutine.
type spanBuf struct {
	t     *tracer
	base  int // keeps IDs unique across buffers
	spans []span
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (b *spanBuf) begin(name string, parent int, req int64) int {
	if b == nil {
		return -1
	}
	id := b.base + len(b.spans)
	b.spans = append(b.spans, span{ID: id, Name: name, Parent: parent, Req: req,
		Start: int64(time.Since(b.t.epoch))})
	return id
}

// end closes span id with the amount of work it covered.
func (b *spanBuf) end(id int, count int64) {
	if b == nil {
		return
	}
	s := &b.spans[id-b.base]
	s.End, s.Count = int64(time.Since(b.t.epoch)), count
}

// rename relabels span id once its outcome is known (a GET is a 200
// or a 304 only after it returns).
func (b *spanBuf) rename(id int, name string) {
	if b != nil {
		b.spans[id-b.base].Name = name
	}
}

// all returns every recorded span; call only after the generators
// have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part
// of that interval its child spans cover (overlapping children are
// counted once; a child running past its parent is clipped).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// durations groups the spans' full durations by name, in ms.
func durations(spans []span) map[string]samples {
	out := map[string]samples{}
	for _, s := range spans {
		d := out[s.Name]
		d.add(s.dur())
		out[s.Name] = d
	}
	return out
}

// writeSpans dumps spans as a JSON array, each with its self time.
func writeSpans(w io.Writer, spans []span) error {
	type dumped struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := make([]dumped, len(spans))
	for i, s := range spans {
		out[i] = dumped{s, int64(self[s.ID])}
	}
	return json.NewEncoder(w).Encode(out)
}
