package engine

import "daccor/internal/blktrace"

// reorderBuffer is the bounded timestamp-reordering stage between the
// ingest ring and the analyzer. With multiple producers racing on the
// ring, events can interleave slightly out of timestamp order; the
// monitor would clamp every inversion (inflating OutOfOrder and
// distorting window decisions). The buffer holds up to cap events
// ordered by (Time, arrival), releasing the oldest once the bound is
// exceeded — so any inversion within a window of cap events is
// repaired, and anything beyond it is counted as late and left to the
// monitor's clamp. The router flushes the buffer whenever it catches
// up with the ring, before answering queries (read-your-writes for
// snapshots), and on stop.
//
// The buffered events are split in two. An event at or above the
// newest event of the run joins the run: a sorted FIFO kept as a ring,
// so an in-order stream — one producer per device — costs one ring
// write and one ring read per event. Only an inversion goes to a
// min-heap. A release takes whichever of the run's head and the heap's
// root is smaller by (Time, arrival); each is the minimum of its part,
// so the release order is that of one heap over all buffered events.
//
// Single-goroutine (router-owned); no locking. The run's ring is the
// one preallocated array, cap+1 items; the heap, which never holds
// more than cap+1 items either, grows by append only to its high-water
// mark, so a stream without inversions never allocates it. Entries are
// plain values, so steady-state push and release do not allocate.
type reorderItem struct {
	ev  blktrace.Event
	ts  int64  // sampled submit timestamp, 0 = unsampled
	arr uint64 // arrival sequence: tie-break keeps equal times FIFO
}

func (a *reorderItem) less(b *reorderItem) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.arr < b.arr
}

type reorderBuffer struct {
	cap int
	arr uint64

	// run holds runN sorted items from index head on, wrapping at
	// len(run); tail is where the next one goes.
	run              []reorderItem
	head, tail, runN int

	heap []reorderItem

	lastReleased int64
	released     bool

	// late counts events released with a timestamp below an
	// already-released one — inversions wider than the buffer. The
	// router mirrors it into the reorder_late metric.
	late uint64
}

func newReorderBuffer(capacity int) *reorderBuffer {
	if capacity < 0 {
		capacity = 0
	}
	return &reorderBuffer{
		cap: capacity,
		run: make([]reorderItem, capacity+1),
	}
}

func (b *reorderBuffer) len() int { return b.runN + len(b.heap) }

// push adds one event. If the buffer exceeds its bound the minimum is
// released to emit; emit may be invoked zero or one times per push.
func (b *reorderBuffer) push(ev blktrace.Event, ts int64, emit func(blktrace.Event, int64)) {
	it := reorderItem{ev: ev, ts: ts, arr: b.arr}
	b.arr++
	if b.runN == 0 || ev.Time >= b.run[b.last()].ev.Time {
		b.run[b.tail] = it
		if b.tail++; b.tail == len(b.run) {
			b.tail = 0
		}
		b.runN++
	} else {
		b.heapPush(it)
	}
	if b.len() > b.cap {
		b.releaseMin(emit)
	}
}

// last is the index of the run's newest item; the run is not empty.
func (b *reorderBuffer) last() int {
	if b.tail == 0 {
		return len(b.run) - 1
	}
	return b.tail - 1
}

// flush releases every buffered event in timestamp order.
func (b *reorderBuffer) flush(emit func(blktrace.Event, int64)) {
	for b.len() > 0 {
		b.releaseMin(emit)
	}
}

func (b *reorderBuffer) releaseMin(emit func(blktrace.Event, int64)) {
	var item reorderItem
	if b.runN > 0 && (len(b.heap) == 0 || b.run[b.head].less(&b.heap[0])) {
		item = b.run[b.head]
		if b.head++; b.head == len(b.run) {
			b.head = 0
		}
		b.runN--
	} else {
		item = b.heapPop()
	}
	if b.released && item.ev.Time < b.lastReleased {
		b.late++
	} else {
		b.lastReleased = item.ev.Time
		b.released = true
	}
	emit(item.ev, item.ts)
}

// heapPush adds it to the heap and sifts it up.
func (b *reorderBuffer) heapPush(it reorderItem) {
	b.heap = append(b.heap, it)
	h := b.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// heapPop removes and returns the heap's root; the heap is not empty.
func (b *reorderBuffer) heapPop() reorderItem {
	h := b.heap
	item := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	b.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].less(&h[smallest]) {
			smallest = l
		}
		if r < len(h) && h[r].less(&h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return item
}
