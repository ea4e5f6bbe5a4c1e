package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"daccor/internal/blktrace"
)

// Lock-free ingest plumbing for the per-device shard: a bounded
// multi-producer single-consumer event ring (Vyukov slot-sequence
// scheme), an eventcount the router sleeps on, and a broadcast gate
// Block-policy producers park on. Together they replace the
// mutex+condvar queue: the submit hot path is one CAS plus one
// relaxed load, and scrape-time counters never touch a lock.

// ringSlot is one cell of the event ring. seq is the Vyukov slot
// sequence: seq == pos means the slot is free for the producer that
// claims ticket pos; seq == pos+1 means it holds that ticket's event;
// seq == pos+capacity means it has been consumed and is free for the
// producer that claims ticket pos+capacity. ts carries the sampled
// submit timestamp (0 = unsampled) for the submit→analyze latency
// histogram.
type ringSlot struct {
	seq atomic.Uint64
	ev  blktrace.Event
	ts  int64
	_   [8]byte // round the slot up to 64 bytes
}

// evRing is a bounded MPSC ring. Producers race on enq (tryPush) and,
// under the DropOldest policy, on deq (dropOldest); the single router
// goroutine consumes via popBatch, which claims every published event
// at deq — up to its buffer — with one CAS on deq rather than one per
// event. Capacity is rounded up to a power of two so position→index is
// a mask.
type evRing struct {
	slots []ringSlot
	mask  uint64
	_     [40]byte // keep enq and deq on separate cache lines
	enq   atomic.Uint64
	_     [56]byte
	deq   atomic.Uint64
	_     [56]byte
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newEvRing(capacity int) *evRing {
	// Minimum 2: the slot-sequence scheme needs "filled for ticket n"
	// and "free for ticket n+capacity" to be distinct states, which a
	// one-slot ring cannot provide (a producer could clobber the one
	// unconsumed event and strand the consumer).
	capacity = ceilPow2(max(capacity, 2))
	r := &evRing{
		slots: make([]ringSlot, capacity),
		mask:  uint64(capacity - 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

func (r *evRing) capacity() int { return len(r.slots) }

// size is an instantaneous estimate of queued events (claimed tickets
// included). It is exact when quiescent and never negative; it is the
// lock-free lag counter.
func (r *evRing) size() int {
	d := int64(r.enq.Load() - r.deq.Load())
	switch {
	case d < 0:
		return 0
	case d > int64(len(r.slots)):
		return len(r.slots)
	}
	return int(d)
}

func (r *evRing) empty() bool { return r.size() == 0 }

// tryPush claims the next ticket and publishes ev. It returns false
// if the ring is full (the slot the next ticket maps to has not been
// consumed yet). Every latencySampleMask+1'th ticket is stamped with
// the submit time for the sampled submit→analyze latency path.
func (r *evRing) tryPush(ev blktrace.Event) bool {
	pos := r.enq.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch d := int64(seq - pos); {
		case d == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				slot.ev = ev
				if pos&latencySampleMask == 0 {
					slot.ts = time.Now().UnixNano()
				} else {
					slot.ts = 0
				}
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case d < 0:
			return false // slot still holds an unconsumed ticket: full
		default:
			pos = r.enq.Load() // lost the race; reload
		}
	}
}

// ringItem is one event popped from the ring: the event and its
// sampled submit timestamp.
type ringItem struct {
	ev blktrace.Event
	ts int64
}

// popBatch consumes up to len(dst) of the oldest events into dst and
// returns how many. It claims the whole run of published slots at deq
// with one CAS — the same CAS a dropOldest races it on, so each ticket
// goes to exactly one of them — then copies the events out and frees
// the slots, oldest first, so the first slot a producer waits on in a
// full ring is the first one freed. The run ends at the first slot not
// yet published, including one claimed by a producer that has not
// finished publishing; the producer's post-publish wake covers that
// window. It returns 0 when the ring is empty.
func (r *evRing) popBatch(dst []ringItem) int {
	pos := r.deq.Load()
	for {
		n := 0
		for n < len(dst) && r.slots[(pos+uint64(n))&r.mask].seq.Load() == pos+uint64(n)+1 {
			n++
		}
		if n == 0 {
			if next := r.deq.Load(); next != pos {
				pos = next // a dropOldest freed the slot at pos; reload
				continue
			}
			return 0
		}
		// A successful CAS means deq stayed at pos since the load (it
		// only grows), so no dropOldest freed any of the n slots and no
		// producer can refill them before they are freed below.
		if r.deq.CompareAndSwap(pos, pos+uint64(n)) {
			for i := range dst[:n] {
				p := pos + uint64(i)
				slot := &r.slots[p&r.mask]
				dst[i] = ringItem{ev: slot.ev, ts: slot.ts}
				slot.seq.Store(p + uint64(len(r.slots)))
			}
			return n
		}
		pos = r.deq.Load() // a dropOldest got there first; reload
	}
}

// dropOldest discards the oldest event to make room (DropOldest
// policy). Producers call it racing the consumer and each other; it
// returns false when there is nothing consumable to drop.
func (r *evRing) dropOldest() bool {
	pos := r.deq.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch d := int64(seq - (pos + 1)); {
		case d == 0:
			if r.deq.CompareAndSwap(pos, pos+1) {
				slot.seq.Store(pos + uint64(len(r.slots)))
				return true
			}
			pos = r.deq.Load()
		case d < 0:
			return false
		default:
			pos = r.deq.Load()
		}
	}
}

// wakeFlag is an eventcount: the consumer announces intent to sleep
// (prepare), rechecks its work sources, and only then blocks (sleep);
// producers wake it with one atomic load on the fast path. The
// sequentially-consistent Store/Load pair makes the classic lost
// wakeup impossible: either the producer sees sleeping=true and sends
// the token, or the consumer's recheck sees the producer's write.
type wakeFlag struct {
	sleeping atomic.Bool
	ch       chan struct{}
}

func (f *wakeFlag) init() { f.ch = make(chan struct{}, 1) }

// wake unblocks the consumer if it is (about to be) asleep.
func (f *wakeFlag) wake() {
	if f.sleeping.Load() && f.sleeping.CompareAndSwap(true, false) {
		select {
		case f.ch <- struct{}{}:
		default:
		}
	}
}

// prepare announces intent to sleep. The caller must recheck its work
// sources after prepare and call cancel instead of sleep if any has
// work.
func (f *wakeFlag) prepare() { f.sleeping.Store(true) }

func (f *wakeFlag) cancel() { f.sleeping.Store(false) }

// sleep blocks until a wake token or either abort channel fires.
func (f *wakeFlag) sleep(abort1, abort2 <-chan struct{}) {
	select {
	case <-f.ch:
	case <-abort1:
	case <-abort2:
	}
	f.sleeping.Store(false)
}

// gate is a broadcast edge: waiters arm, recheck their condition, and
// block on the armed channel; open closes the current channel and
// replaces it. The waiters fast-path count lets the opener skip the
// mutex entirely when nobody is parked — the common case on the
// consumer's per-batch open.
type gate struct {
	waiters atomic.Int32
	mu      sync.Mutex
	ch      chan struct{}
}

func (g *gate) init() { g.ch = make(chan struct{}) }

// arm registers the caller as a waiter and returns the channel the
// next open will close. The caller MUST recheck its condition after
// arm (the edge may have fired in between) and MUST call disarm when
// done waiting, whether or not the channel fired.
func (g *gate) arm() <-chan struct{} {
	g.waiters.Add(1)
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	return ch
}

func (g *gate) disarm() { g.waiters.Add(-1) }

// open releases every armed waiter. Because a waiter increments
// waiters before arming and rechecks its condition after, an open
// that observes waiters == 0 can safely skip: any waiter arriving
// later rechecks after the state change that motivated this open.
func (g *gate) open() {
	if g.waiters.Load() == 0 {
		return
	}
	g.mu.Lock()
	close(g.ch)
	g.ch = make(chan struct{})
	g.mu.Unlock()
}
