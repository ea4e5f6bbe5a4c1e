package engine

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/obs"
)

func batchOf(n int, base uint64) []blktrace.Event {
	evs := make([]blktrace.Event, n)
	for i := range evs {
		evs[i] = blktrace.Event{Time: int64(i) * 1000, Op: blktrace.OpRead,
			Extent: blktrace.Extent{Block: base + uint64(i), Len: 1}}
	}
	return evs
}

func TestSubmitBatchValidates(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"))
	defer e.Stop()
	evs := batchOf(4, 100)
	evs[2].Extent.Len = 0 // invalid
	err := e.SubmitBatch("vol0", evs)
	if err == nil {
		t.Fatal("want validation error")
	}
	if !strings.Contains(err.Error(), "event 2") {
		t.Errorf("error %q does not identify the offending index", err)
	}
	// A rejected batch must not be partially ingested.
	ds, err := e.DeviceStatsFor("vol0")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Monitor.Events != 0 || ds.Lag != 0 {
		t.Errorf("rejected batch leaked events: processed %d, lag %d", ds.Monitor.Events, ds.Lag)
	}
	dev, err := e.Device("vol0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SubmitBatch(evs); err == nil || !strings.Contains(err.Error(), "event 2") {
		t.Errorf("Device.SubmitBatch = %v, want indexed validation error", err)
	}
}

func TestSubmitBatchUnknownDeviceAndStopped(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"))
	evs := batchOf(2, 0)
	if err := e.SubmitBatch("nope", evs); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("SubmitBatch = %v, want ErrUnknownDevice", err)
	}
	if err := e.SubmitBatch("vol0", nil); err != nil {
		t.Errorf("empty batch = %v, want nil", err)
	}
	dev, err := e.Device("vol0")
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	if err := e.SubmitBatch("vol0", evs); !errors.Is(err, ErrStopped) {
		t.Errorf("SubmitBatch after stop = %v, want ErrStopped", err)
	}
	if err := dev.SubmitBatch(evs); !errors.Is(err, ErrStopped) {
		t.Errorf("Device.SubmitBatch after stop = %v, want ErrStopped", err)
	}
}

// TestSubmitBatchEquivalentToSubmit checks the batch path produces the
// same synopsis as the per-event path: identical snapshot and stats.
func TestSubmitBatchEquivalentToSubmit(t *testing.T) {
	evs := make([]blktrace.Event, 0, 400)
	for i := 0; i < 100; i++ {
		base := int64(i) * int64(time.Second)
		for j := 0; j < 4; j++ {
			evs = append(evs, blktrace.Event{Time: base + int64(j)*1000, Op: blktrace.OpRead,
				Extent: blktrace.Extent{Block: uint64(10 + j*10), Len: 1}})
		}
	}

	one := mustEngine(t, WithDevices("d"), WithBackpressure(Block))
	for _, ev := range evs {
		if err := one.Submit("d", ev); err != nil {
			t.Fatal(err)
		}
	}
	one.Stop()
	wantSnap, err := one.Snapshot("d", 0)
	if err != nil && !errors.Is(err, ErrStopped) {
		t.Fatal(err)
	}

	// Queue smaller than the batch: exercises the wake-the-worker path.
	batched := mustEngine(t, WithDevices("d"), WithBackpressure(Block), WithQueueSize(64))
	if err := batched.SubmitBatch("d", evs); err != nil {
		t.Fatal(err)
	}
	batched.Stop()
	gotSnap, err := batched.Snapshot("d", 0)
	if err != nil && !errors.Is(err, ErrStopped) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Errorf("batched snapshot differs from per-event snapshot:\n got %+v\nwant %+v", gotSnap, wantSnap)
	}
}

// TestSubmitBatchDoesNotRetain: SubmitBatch copies the events, so a
// caller that overwrites (or pools) the slice the moment it returns
// leaves the synopsis exactly as if it had never touched it.
func TestSubmitBatchDoesNotRetain(t *testing.T) {
	const batch = 50
	evs := make([]blktrace.Event, 0, 20*batch)
	for i := 0; i < 20*batch/4; i++ {
		base := int64(i) * int64(time.Second)
		for j := 0; j < 4; j++ {
			evs = append(evs, blktrace.Event{Time: base + int64(j)*1000, Op: blktrace.OpRead,
				Extent: blktrace.Extent{Block: uint64(10 + j*10 + i%3), Len: 1}})
		}
	}
	for _, parts := range []int{1, 2} {
		// The overwrite lands while the router may still be draining the
		// ring: a retained slice would show up as block 999 pairs.
		run := func(overwrite bool) core.Snapshot {
			e := mustEngine(t, WithDevices("d"), WithBackpressure(Block), WithQueueSize(64), WithPartitions(parts))
			buf := make([]blktrace.Event, batch)
			for i := 0; i < len(evs); i += batch {
				copy(buf, evs[i:i+batch])
				if err := e.SubmitBatch("d", buf); err != nil {
					t.Fatal(err)
				}
				if overwrite {
					for j := range buf {
						buf[j] = blktrace.Event{Time: 1, Op: blktrace.OpWrite, Extent: blktrace.Extent{Block: 999, Len: 7}}
					}
				}
			}
			defer e.Stop()
			waitDrained(t, e, "d", uint64(len(evs)))
			snap, err := e.Snapshot("d", 0)
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
		got, want := run(true), run(false)
		if len(want.Pairs) == 0 {
			t.Fatalf("P=%d: no pairs learned; the test shows nothing", parts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: snapshot after overwriting the submitted slice differs:\n got %+v\nwant %+v", parts, got, want)
		}
	}
}

func TestSubmitBatchDropOldestAccounting(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"), WithQueueSize(4), WithBackpressure(DropOldest))
	const n = 5000
	const chunk = 128
	submitted := uint64(0)
	for off := 0; off < n; off += chunk {
		sz := min(chunk, n-off)
		if err := e.SubmitBatch("vol0", batchOf(sz, uint64(off))); err != nil {
			t.Fatal(err)
		}
		submitted += uint64(sz)
	}
	ds := waitDrained(t, e, "vol0", submitted)
	if ds.Monitor.Events+ds.Dropped != submitted {
		t.Errorf("events %d + dropped %d != submitted %d", ds.Monitor.Events, ds.Dropped, submitted)
	}
	e.Stop()
}

func TestSubmitBatchBlockLosesNothing(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"), WithQueueSize(8), WithBackpressure(Block))
	const n = 4096
	const chunk = 256 // much larger than the queue
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for off := 0; off < n/4; off += chunk {
				evs := batchOf(chunk, uint64(g*1_000_000+off))
				if err := e.SubmitBatch("vol0", evs); err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ds := waitDrained(t, e, "vol0", n)
	if ds.Monitor.Events != n {
		t.Errorf("events = %d, want %d", ds.Monitor.Events, n)
	}
	if ds.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 under Block policy", ds.Dropped)
	}
	e.Stop()
}

// TestSubmitBatchMetrics checks the batch counter and size histogram
// families record each accepted batch.
func TestSubmitBatchMetrics(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"), WithBackpressure(Block))
	defer e.Stop()
	if err := e.SubmitBatch("vol0", batchOf(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch("vol0", batchOf(5, 100)); err != nil {
		t.Fatal(err)
	}
	// Counter/Histogram are get-or-create keyed by name+labels, so
	// re-fetching returns the live series the shard updates.
	lbl := obs.L("device", "vol0")
	if got := e.Metrics().Counter(MetricBatches, "", lbl).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MetricBatches, got)
	}
	h := e.Metrics().Histogram(MetricBatchSize, "", obs.ExpBuckets(1, 2, 13), lbl)
	if h.Count() != 2 || h.Sum() != 8 {
		t.Errorf("%s count=%d sum=%v, want count=2 sum=8", MetricBatchSize, h.Count(), h.Sum())
	}
}
