package engine

import (
	"runtime"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// TestEngineSubmitBatchSteadyStateAllocs pins the router's memory
// contract: once the synopsis arenas and the monitor's transaction
// buffer are at size, ingest allocates per drain, not per event. A run
// submits n events in 64-event batches and then reads the device's
// stats, which the router answers only after it has analysed every
// event submitted before the read, so each run ends drained. Runs of
// 4 Ki and 64 Ki events must allocate about the same; a per-event or
// per-transaction allocation anywhere on the path from SubmitBatch to
// the analyzer adds thousands.
func TestEngineSubmitBatchSteadyStateAllocs(t *testing.T) { checkDrainedRunAllocs(t, 1) }

// TestEngineSubmitBatchSteadyStateAllocsP2 is the same contract at
// P = 2, where the router also hands each transaction to the partition
// workers' rings and sleeps on a full one: neither the hand-off nor the
// router's wake-up may allocate per transaction.
func TestEngineSubmitBatchSteadyStateAllocsP2(t *testing.T) { checkDrainedRunAllocs(t, 2) }

func checkDrainedRunAllocs(t *testing.T, parts int) {
	e, err := New(
		WithMonitor(monitor.Config{Window: monitor.StaticWindow(100 * time.Microsecond)}),
		WithAnalyzer(core.Config{ItemCapacity: 2048, PairCapacity: 2048}),
		WithQueueSize(8192),
		WithBackpressure(Block),
		WithPartitions(parts),
		WithDevices("dev0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	dev, err := e.Device("dev0")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]blktrace.Event, 64)
	seq := 0
	run := func(n int) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for done := 0; done < n; done += len(batch) {
			for i := range batch {
				// 10 µs apart under a 100 µs window: transactions of up
				// to eight events, cut by window and by cap, over 4 Ki
				// blocks, so both tables evict.
				batch[i] = blktrace.Event{Time: int64(seq) * 10_000, Op: blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(seq%4096) * 8, Len: 8}}
				seq++
			}
			if err := dev.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := e.DeviceStatsFor("dev0")
		if err != nil {
			t.Fatal(err)
		}
		if ds.Monitor.Events != uint64(seq) {
			t.Fatalf("run not drained: %d of %d events analysed", ds.Monitor.Events, seq)
		}
		runtime.ReadMemStats(&ms)
		return ms.Mallocs - before
	}
	run(64 << 10) // warm up: arenas, indexes, ring and buffers at size
	small, large := run(4<<10), run(64<<10)
	t.Logf("P = %d: allocations per drained run: %d for 4 Ki events, %d for 64 Ki", parts, small, large)
	if large > small+64 {
		t.Errorf("P = %d: a drained run of 64 Ki events allocates %d times, one of 4 Ki %d: ingest allocates per event", parts, large, small)
	}
}
