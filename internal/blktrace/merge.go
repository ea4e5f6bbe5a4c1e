package blktrace

import (
	"container/heap"
	"errors"
	"io"
)

// MergeSources combines several event sources into one stream ordered
// by timestamp — the role of blkparse merging blktrace's per-CPU
// buffers, and the way multi-tenant workloads are composed from
// per-tenant traces. Each input source must itself be time-ordered;
// ties are broken by source index for determinism.
func MergeSources(sources ...Source) Source {
	m := &mergedStream{}
	for i, src := range sources {
		m.pending = append(m.pending, pendingSource{src: src, index: i})
	}
	return m
}

type pendingSource struct {
	src    Source
	index  int
	head   Event
	primed bool
}

type mergedStream struct {
	pending []pendingSource // not yet primed
	heap    mergeHeap
	err     error
}

type mergeHeap []pendingSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].head.Time != h[j].head.Time {
		return h[i].head.Time < h[j].head.Time
	}
	return h[i].index < h[j].index
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(pendingSource)) }
func (h *mergeHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

// prime pulls the first event of every source into the heap.
func (m *mergedStream) prime() error {
	for _, ps := range m.pending {
		ev, err := ps.src.Next()
		if errors.Is(err, io.EOF) {
			continue
		}
		if err != nil {
			return err
		}
		ps.head = ev
		ps.primed = true
		heap.Push(&m.heap, ps)
	}
	m.pending = nil
	return nil
}

// Next implements Source.
func (m *mergedStream) Next() (Event, error) {
	if m.err != nil {
		return Event{}, m.err
	}
	if m.pending != nil {
		if err := m.prime(); err != nil {
			m.err = err
			return Event{}, err
		}
	}
	if m.heap.Len() == 0 {
		return Event{}, io.EOF
	}
	top := m.heap[0]
	out := top.head
	next, err := top.src.Next()
	switch {
	case errors.Is(err, io.EOF):
		heap.Pop(&m.heap)
	case err != nil:
		m.err = err
		return Event{}, err
	default:
		m.heap[0].head = next
		heap.Fix(&m.heap, 0)
	}
	return out, nil
}

// WithPID returns a Source that stamps every event from src with the
// given process ID — used to compose multi-tenant workloads whose
// tenants the monitor can then filter apart.
func WithPID(src Source, pid uint32) Source {
	return pidSource{src: src, pid: pid}
}

type pidSource struct {
	src Source
	pid uint32
}

func (p pidSource) Next() (Event, error) {
	ev, err := p.src.Next()
	if err != nil {
		return Event{}, err
	}
	ev.PID = p.pid
	return ev, nil
}
