package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"daccor/internal/blktrace"
)

func mkEv(t int64, block uint64) blktrace.Event {
	return blktrace.Event{Time: t, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: block, Len: 8}}
}

// popOne pops one event through a one-item batch.
func popOne(r *evRing, ev *blktrace.Event, ts *int64) bool {
	var buf [1]ringItem
	if r.popBatch(buf[:]) == 0 {
		return false
	}
	*ev, *ts = buf[0].ev, buf[0].ts
	return true
}

func TestEvRingFIFO(t *testing.T) {
	r := newEvRing(8)
	if r.capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", r.capacity())
	}
	for i := 0; i < 8; i++ {
		if !r.tryPush(mkEv(int64(i), uint64(i))) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.tryPush(mkEv(99, 99)) {
		t.Fatal("push succeeded on full ring")
	}
	if r.size() != 8 {
		t.Fatalf("size = %d, want 8", r.size())
	}
	var ev blktrace.Event
	var ts int64
	for i := 0; i < 8; i++ {
		if !popOne(r, &ev, &ts) {
			t.Fatalf("pop %d failed", i)
		}
		if ev.Time != int64(i) || ev.Extent.Block != uint64(i) {
			t.Fatalf("pop %d = %+v, want time/block %d", i, ev, i)
		}
	}
	if popOne(r, &ev, &ts) {
		t.Fatal("pop succeeded on empty ring")
	}
	// wraparound: interleave pushes and pops past capacity
	for i := 0; i < 100; i++ {
		if !r.tryPush(mkEv(int64(i), uint64(i))) {
			t.Fatalf("wrap push %d failed", i)
		}
		if !popOne(r, &ev, &ts) || ev.Time != int64(i) {
			t.Fatalf("wrap pop %d = %+v", i, ev)
		}
	}
	// a batch takes every published event, in order, up to its length,
	// across the wrap
	for i := 0; i < 7; i++ {
		r.tryPush(mkEv(int64(i), uint64(i)))
	}
	var buf [5]ringItem
	if n := r.popBatch(buf[:]); n != 5 {
		t.Fatalf("popBatch of 5 from 7 queued = %d", n)
	}
	if n := r.popBatch(buf[:]); n != 2 || buf[0].ev.Time != 5 || buf[1].ev.Time != 6 {
		t.Fatalf("popBatch of the last 2 = %d %+v", n, buf[:n])
	}
	if n := r.popBatch(buf[:]); n != 0 {
		t.Fatalf("popBatch on empty ring = %d", n)
	}
}

// TestEvRingBatchStopsAtUnpublished: a slot a producer has claimed but
// not yet published ends a batch before it, and the events behind it
// wait for it.
func TestEvRingBatchStopsAtUnpublished(t *testing.T) {
	r := newEvRing(8)
	for i := 0; i < 5; i++ {
		r.tryPush(mkEv(int64(i), uint64(i)))
	}
	// Put ticket 2 back to "claimed, not published": its seq is the
	// ticket itself, as between a producer's enq CAS and its seq store.
	r.slots[2].seq.Store(2)
	var buf [8]ringItem
	if n := r.popBatch(buf[:]); n != 2 || buf[0].ev.Time != 0 || buf[1].ev.Time != 1 {
		t.Fatalf("batch before the unpublished slot = %d %+v, want tickets 0 and 1", n, buf[:n])
	}
	if n := r.popBatch(buf[:]); n != 0 {
		t.Fatalf("batch at the unpublished slot = %d, want 0", n)
	}
	if r.size() != 3 {
		t.Fatalf("size = %d, want 3 (the unpublished ticket and the two behind it)", r.size())
	}
	r.slots[2].seq.Store(3) // the producer publishes
	if n := r.popBatch(buf[:]); n != 3 || buf[0].ev.Time != 2 || buf[2].ev.Time != 4 {
		t.Fatalf("batch after publishing = %d %+v, want tickets 2..4", n, buf[:n])
	}
}

func TestEvRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, 128}} {
		if got := newEvRing(tc.in).capacity(); got != tc.want {
			t.Errorf("newEvRing(%d).capacity() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestEvRingDropOldest(t *testing.T) {
	r := newEvRing(4)
	for i := 0; i < 4; i++ {
		r.tryPush(mkEv(int64(i), uint64(i)))
	}
	if !r.dropOldest() {
		t.Fatal("dropOldest failed on full ring")
	}
	if !r.tryPush(mkEv(4, 4)) {
		t.Fatal("push failed after dropOldest")
	}
	var ev blktrace.Event
	var ts int64
	want := []int64{1, 2, 3, 4}
	for _, w := range want {
		if !popOne(r, &ev, &ts) || ev.Time != w {
			t.Fatalf("pop = %+v, want time %d", ev, w)
		}
	}
	if r.dropOldest() {
		t.Fatal("dropOldest succeeded on empty ring")
	}
}

func TestEvRingLatencySampling(t *testing.T) {
	r := newEvRing(256)
	var ev blktrace.Event
	var ts int64
	for i := 0; i < 200; i++ {
		r.tryPush(mkEv(int64(i), uint64(i)))
	}
	sampled := 0
	for popOne(r, &ev, &ts) {
		if ts != 0 {
			sampled++
		}
	}
	// tickets 0, 64, 128, 192 are sampled
	if sampled != 4 {
		t.Fatalf("sampled %d of 200, want 4", sampled)
	}
}

// TestEvRingConcurrent hammers the ring with racing producers and
// droppers against a single consumer popping in batches of 1, 3 and
// 64; with -race this is the memory ordering check for the
// slot-sequence protocol and the batch claim. Every pushed ticket must
// be accounted exactly once, by popBatch or by dropOldest, and each
// producer's popped events must come out in the order it pushed them.
func TestEvRingConcurrent(t *testing.T) {
	const producers = 4
	const droppers = 2
	const perProducer = 5000
	for _, batch := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			r := newEvRing(64)
			var dropped atomic.Int64
			var producersDone atomic.Bool
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						ev := mkEv(int64(i), uint64(p)<<32|uint64(i))
						for !r.tryPush(ev) {
							runtime.Gosched()
						}
					}
				}(p)
			}
			var dwg sync.WaitGroup
			for d := 0; d < droppers; d++ {
				dwg.Add(1)
				go func() {
					defer dwg.Done()
					for !producersDone.Load() {
						if r.size() > r.capacity()/2 && r.dropOldest() {
							dropped.Add(1)
						}
						runtime.Gosched()
					}
				}()
			}
			done := make(chan struct{})
			consumed := 0
			var orderErr error
			go func() {
				defer close(done)
				buf := make([]ringItem, batch)
				next := make([]int64, producers) // lowest index each producer may still pop
				for {
					n := r.popBatch(buf)
					for _, it := range buf[:n] {
						p, i := int(it.ev.Extent.Block>>32), int64(it.ev.Extent.Block&0xffffffff)
						if i < next[p] && orderErr == nil {
							orderErr = fmt.Errorf("producer %d: event %d popped after %d", p, i, next[p]-1)
						}
						next[p] = i + 1
					}
					consumed += n
					if n > 0 {
						continue
					}
					if producersDone.Load() && r.empty() {
						return
					}
					runtime.Gosched()
				}
			}()
			wg.Wait()
			producersDone.Store(true)
			dwg.Wait()
			<-done
			if orderErr != nil {
				t.Fatal(orderErr)
			}
			t.Logf("consumed %d, dropped %d", consumed, dropped.Load())
			total := consumed + int(dropped.Load())
			if total != producers*perProducer {
				t.Fatalf("consumed %d + dropped %d = %d, want %d", consumed, dropped.Load(), total, producers*perProducer)
			}
		})
	}
}

func TestWakeFlagNoLostWakeup(t *testing.T) {
	var f wakeFlag
	f.init()
	stop := make(chan struct{})
	var work, seen atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			for work.Load() > seen.Load() {
				seen.Add(1)
			}
			select {
			case <-stop:
				return
			default:
			}
			f.prepare()
			if work.Load() > seen.Load() {
				f.cancel()
				continue
			}
			f.sleep(stop, nil)
		}
	}()
	for i := 0; i < 2000; i++ {
		work.Add(1)
		f.wake()
	}
	// consumer must observe all work without a deadlock
	for work.Load() > seen.Load() {
		f.wake()
		runtime.Gosched()
	}
	close(stop)
	<-done
	if got := seen.Load(); got != 2000 {
		t.Fatalf("consumer saw %d of 2000", got)
	}
}

func TestGateOpenReleasesWaiters(t *testing.T) {
	var g gate
	g.init()
	const n = 8
	var wg sync.WaitGroup
	ready := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := g.arm()
			ready <- struct{}{}
			<-ch
			g.disarm()
		}()
	}
	for i := 0; i < n; i++ {
		<-ready
	}
	g.open()
	wg.Wait()
	// open with no waiters is a no-op and must not panic
	g.open()
}

func TestReorderBufferRepairsInversions(t *testing.T) {
	b := newReorderBuffer(4)
	var out []int64
	emit := func(ev blktrace.Event, _ int64) { out = append(out, ev.Time) }
	// inversions within the window of 4 are repaired
	for _, tm := range []int64{5, 3, 4, 1, 2, 8, 7, 6} {
		b.push(mkEv(tm, uint64(tm)), 0, emit)
	}
	b.flush(emit)
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("out of order release: %v", out)
		}
	}
	if len(out) != 8 {
		t.Fatalf("released %d, want 8", len(out))
	}
	if b.late != 0 {
		t.Fatalf("late = %d, want 0 (all inversions within window)", b.late)
	}
}

func TestReorderBufferLateCounter(t *testing.T) {
	b := newReorderBuffer(2)
	emit := func(blktrace.Event, int64) {}
	// 10, 11, 12 fill and start releasing; then 1 arrives — an
	// inversion wider than the 2-slot window.
	for _, tm := range []int64{10, 11, 12, 13} {
		b.push(mkEv(tm, uint64(tm)), 0, emit)
	}
	b.push(mkEv(1, 1), 0, emit)
	b.flush(emit)
	if b.late == 0 {
		t.Fatal("expected a late release for an inversion wider than the window")
	}
}

func TestReorderBufferFIFOTieBreak(t *testing.T) {
	b := newReorderBuffer(8)
	var out []uint64
	emit := func(ev blktrace.Event, _ int64) { out = append(out, ev.Extent.Block) }
	for i := 0; i < 6; i++ {
		b.push(mkEv(7, uint64(i)), 0, emit) // identical timestamps
	}
	b.flush(emit)
	for i, blk := range out {
		if blk != uint64(i) {
			t.Fatalf("equal-time events reordered: %v", out)
		}
	}
}

func TestReorderBufferZeroCapPassesThrough(t *testing.T) {
	b := newReorderBuffer(0)
	var out []int64
	emit := func(ev blktrace.Event, _ int64) { out = append(out, ev.Time) }
	for _, tm := range []int64{3, 1, 2} {
		b.push(mkEv(tm, 0), 0, emit)
	}
	if len(out) != 3 {
		t.Fatalf("cap-0 buffer held events: released %d of 3", len(out))
	}
	if out[0] != 3 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("cap-0 buffer reordered: %v", out)
	}
	if b.late != 2 {
		t.Fatalf("late = %d, want 2", b.late)
	}
}

// refReorder is the reorder buffer's reference: the same bound, with
// the buffered events in a plain slice and each release the
// (Time, arrival) minimum found by a linear scan.
type refReorder struct {
	cap          int
	items        []reorderItem
	arr          uint64
	lastReleased int64
	released     bool
	late         uint64
}

func (b *refReorder) push(ev blktrace.Event, ts int64, emit func(blktrace.Event, int64)) {
	b.items = append(b.items, reorderItem{ev: ev, ts: ts, arr: b.arr})
	b.arr++
	if len(b.items) > b.cap {
		b.releaseMin(emit)
	}
}

func (b *refReorder) flush(emit func(blktrace.Event, int64)) {
	for len(b.items) > 0 {
		b.releaseMin(emit)
	}
}

func (b *refReorder) releaseMin(emit func(blktrace.Event, int64)) {
	m := 0
	for i := range b.items {
		it, min := b.items[i], b.items[m]
		if it.ev.Time < min.ev.Time || (it.ev.Time == min.ev.Time && it.arr < min.arr) {
			m = i
		}
	}
	item := b.items[m]
	b.items = append(b.items[:m], b.items[m+1:]...)
	if b.released && item.ev.Time < b.lastReleased {
		b.late++
	} else {
		b.lastReleased = item.ev.Time
		b.released = true
	}
	emit(item.ev, item.ts)
}

// TestReorderBufferRandomized checks the reorder buffer against
// refReorder on random streams: in-order runs, inversions inside and
// wider than the bound, equal timestamps, and flushes at random points.
// After every push and flush the released (event, ts) sequence, len()
// and late must match.
func TestReorderBufferRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rel struct {
		ev blktrace.Event
		ts int64
	}
	for trial := 0; trial < 600; trial++ {
		capN := rng.Intn(41) // 0..40
		b := newReorderBuffer(capN)
		ref := &refReorder{cap: capN}
		var got, want []rel
		emit := func(ev blktrace.Event, ts int64) { got = append(got, rel{ev, ts}) }
		emitRef := func(ev blktrace.Event, ts int64) { want = append(want, rel{ev, ts}) }
		check := func(i int, what string) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("trial %d (cap %d) after %s %d: released %d, reference %d", trial, capN, what, i, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d (cap %d) after %s %d: release %d = %+v, reference %+v", trial, capN, what, i, k, got[k], want[k])
				}
			}
			if b.len() != len(ref.items) || b.late != ref.late {
				t.Fatalf("trial %d (cap %d) after %s %d: len %d late %d, reference len %d late %d",
					trial, capN, what, i, b.len(), b.late, len(ref.items), ref.late)
			}
		}
		n := rng.Intn(300) + 1
		tm := int64(1000)
		for i := 0; i < n; i++ {
			var ev int64
			switch r := rng.Intn(10); {
			case r < 5: // in order, often an equal timestamp
				tm += int64(rng.Intn(3))
				ev = tm
			case r < 8: // an inversion inside the bound
				ev = tm - int64(rng.Intn(capN+1))
			case r < 9: // an inversion wider than the bound
				ev = tm - int64(capN+1+rng.Intn(3*capN+10))
			default: // a jump ahead
				tm += int64(rng.Intn(50))
				ev = tm
			}
			ts := int64(0)
			if rng.Intn(4) == 0 {
				ts = int64(i + 1)
			}
			e := mkEv(ev, uint64(i))
			b.push(e, ts, emit)
			ref.push(e, ts, emitRef)
			check(i, "push")
			if rng.Intn(40) == 0 {
				b.flush(emit)
				ref.flush(emitRef)
				check(i, "flush")
			}
		}
		b.flush(emit)
		ref.flush(emitRef)
		check(n, "final flush")
		if len(got) != n {
			t.Fatalf("trial %d: released %d of %d", trial, len(got), n)
		}
	}
}
