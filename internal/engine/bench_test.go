package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// BenchmarkEngineSubmitBatch measures the batched ingest path in
// isolation: one producer streaming pre-built batches into a single
// shard under the Block policy (every event is processed, so ns/op is
// honest end-to-end work). Sub-benchmarks sweep the batch size; the
// gap between batch-1 and the larger sizes is the per-event lock and
// signal overhead that SubmitBatch amortizes.
func BenchmarkEngineSubmitBatch(b *testing.B) {
	for _, size := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			eng, err := New(
				WithMonitor(monitor.Config{Window: monitor.StaticWindow(100 * time.Microsecond)}),
				WithAnalyzer(core.Config{ItemCapacity: 16 * 1024, PairCapacity: 16 * 1024}),
				WithQueueSize(8192),
				WithBackpressure(Block),
				WithDevices("dev0"),
			)
			if err != nil {
				b.Fatal(err)
			}
			dev, err := eng.Device("dev0")
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]blktrace.Event, size)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				n := min(size, b.N-done)
				for i := 0; i < n; i++ {
					seq := done + i
					batch[i] = blktrace.Event{
						Time: int64(seq) * 10_000, // monotone
						Op:   blktrace.OpRead,
						Extent: blktrace.Extent{
							Block: uint64(seq%4096) * 8, Len: 8,
						},
					}
				}
				if err := dev.SubmitBatch(batch[:n]); err != nil {
					b.Fatal(err)
				}
			}
			eng.Stop() // drain before the clock stops
			b.StopTimer()
		})
	}
}

// BenchmarkReorderBuffer measures the timestamp-reordering stage in
// isolation. The cap-N cases are a steady stream, 100 ns apart, with
// each event set back by a pseudo-random offset below N (the
// multi-producer interleave the buffer exists to repair): an event
// below the run's newest is an inversion and pays one sift-up plus one
// sift-down in the heap. At cap-256 many events invert; at cap-16 the
// offsets stay below the spacing, so none does. The inorder-256 case is one producer's stream,
// every event at or above the last, through a DefaultReorderBuffer-sized
// buffer: one write and one read of the run's ring per event, no heap.
// 0 allocs/op throughout.
func BenchmarkReorderBuffer(b *testing.B) {
	for _, tc := range []struct {
		name   string
		capN   int
		jitter bool
	}{{"cap-16", 16, true}, {"cap-256", 256, true}, {"inorder-256", 256, false}} {
		b.Run(tc.name, func(b *testing.B) {
			rb := newReorderBuffer(tc.capN)
			emit := func(blktrace.Event, int64) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Deterministic jitter within the window: event i
				// carries time i minus a pseudo-random offset < capN.
				var jitter int64
				if tc.jitter {
					jitter = int64((uint64(i) * 0x9e3779b97f4a7c15 >> 56) & uint64(tc.capN-1))
				}
				ev := blktrace.Event{
					Time:   int64(i)*100 - jitter,
					Op:     blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(i & 4095), Len: 8},
				}
				rb.push(ev, 0, emit)
			}
			rb.flush(emit)
			b.StopTimer()
		})
	}
}

// checkpointEvery is the persistence cadence for the checkpointing
// and storm variants below: 100ms (ten full-state generations per
// second, each a complete capture + encode + fsync) is already one to
// two orders of magnitude more aggressive than any production
// checkpoint schedule.
const checkpointEvery = 100 * time.Millisecond

// BenchmarkIngestUnderCheckpoint measures what readers cost the
// ingest path. Three variants run identical batched ingest:
//
//	quiet         — nothing else running (the baseline)
//	checkpointing — a periodic checkpoint loop persists a generation
//	                every checkpointEvery the whole time
//	storm         — the checkpoint loop plus a goroutine hammering
//	                Snapshot and Rules queries with no throttle
//
// With off-worker snapshotting the worker only pays the O(live
// entries) capture per read — binary encoding, canonical sorting, and
// the fsync all happen on the reader's goroutine — so checkpointing
// ns/op should land within ~20% of quiet rather than the multiples
// that on-worker serialization used to cost (on multi-core hosts the
// encode and fsync overlap ingest entirely; on a single core they
// still steal time slices). The storm variant is an unbounded
// adversarial reader — every round trip forces a fresh capture — so
// it bounds the worst case rather than the acceptance target.
func BenchmarkIngestUnderCheckpoint(b *testing.B) {
	const batchSize = 256
	run := func(b *testing.B, checkpoints, storm bool) {
		opts := []Option{
			WithMonitor(monitor.Config{Window: monitor.StaticWindow(100 * time.Microsecond)}),
			WithAnalyzer(core.Config{ItemCapacity: 16 * 1024, PairCapacity: 16 * 1024}),
			WithQueueSize(8192),
			WithBackpressure(Block),
			WithDevices("dev0"),
		}
		if checkpoints {
			store, err := checkpoint.Open(checkpoint.Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			opts = append(opts, WithCheckpoints(store, checkpointEvery))
		}
		eng, err := New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		dev, err := eng.Device("dev0")
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if storm {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := eng.Snapshot("dev0", 2); err != nil {
						return
					}
					if _, _, err := eng.State("dev0", 2, 0.5, 64, core.WantRules); err != nil {
						return
					}
				}
			}()
		}
		batch := make([]blktrace.Event, batchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batchSize {
			n := min(batchSize, b.N-done)
			for i := 0; i < n; i++ {
				seq := done + i
				batch[i] = blktrace.Event{
					Time: int64(seq) * 10_000, // monotone
					Op:   blktrace.OpRead,
					Extent: blktrace.Extent{
						Block: uint64(seq%4096) * 8, Len: 8,
					},
				}
			}
			if err := dev.SubmitBatch(batch[:n]); err != nil {
				b.Fatal(err)
			}
		}
		eng.Stop() // drain before the clock stops
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("quiet", func(b *testing.B) { run(b, false, false) })
	b.Run("checkpointing", func(b *testing.B) { run(b, true, false) })
	b.Run("storm", func(b *testing.B) { run(b, true, true) })
}
