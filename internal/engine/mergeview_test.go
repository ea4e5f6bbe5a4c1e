package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// The engine's merged read path is incrementally maintained (only
// devices whose epoch moved feed their sorted export into the merge
// index); these tests pin it against the from-scratch answer —
// MergeSnapshots over the per-device exports — through ingest churn,
// partitioning, support filters, and devices unregistered, failed and
// restarted from a checkpoint.

func mergedFromScratch(t *testing.T, e *Engine, devices []string, minSupport uint32) core.Snapshot {
	t.Helper()
	snaps := make([]core.Snapshot, 0, len(devices))
	for _, id := range devices {
		s, err := e.Snapshot(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	return core.MergeSnapshots(snaps...).FilterSupport(minSupport)
}

func testMergedIncrementalEqualsScratch(t *testing.T, parts int) {
	devices := []string{"vol0", "vol1", "vol2", "vol3"}
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// A block no burst touches: vol2 and vol3 panic on it, vol2 when it
	// is sent one (a supervised restart), vol3 until its budget is gone.
	const poison = 1 << 40
	opts := []Option{
		WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
		WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		WithDevices(devices...),
		WithBackpressure(Block),
		WithCheckpoints(store, 5*time.Millisecond),
		WithSupervisor(fastSupervisor(2, 1<<20)),
		WithProcessHook(func(device string, ev blktrace.Event) {
			if ev.Extent.Block == poison && (device == "vol2" || device == "vol3") {
				panic("injected fault")
			}
		}),
	}
	if parts > 1 {
		opts = append(opts, WithPartitions(parts))
	}
	e, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	rng := rand.New(rand.NewSource(17))
	submitted := make(map[string]uint64)
	// dirtied holds the devices a burst has moved since the last merged
	// read; before the first, every device is new to the view.
	dirtied := make(map[string]bool)
	for _, id := range devices {
		dirtied[id] = true
	}
	var clock int64
	burst := func(id string) {
		dirtied[id] = true
		// A short run of overlapping transactions on one device; the
		// millisecond gaps close each transaction behind it.
		for tx := 0; tx < 8; tx++ {
			n := 2 + rng.Intn(3)
			for i := 0; i < n; i++ {
				ev := blktrace.Event{Time: clock, Op: blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(rng.Intn(64)) * 8, Len: 8}}
				if err := e.Submit(id, ev); err != nil {
					t.Fatal(err)
				}
				submitted[id]++
				clock += 10_000 // 10µs: same window
			}
			clock += int64(2 * time.Millisecond)
		}
		waitDrained(t, e, id, submitted[id])
	}
	exports := func() (n float64) {
		for _, id := range devices {
			n += metricValue(t, e, MetricExportPatched, id) + metricValue(t, e, MetricExportRebuilt, id)
		}
		return n
	}
	// requireMerged holds the unbounded merged read to the from-scratch
	// merge of the live devices, and the index to one source per live
	// device and no other.
	requireMerged := func(label string) {
		t.Helper()
		clear(dirtied)
		for _, minSupport := range []uint32{0, 1, 3} {
			got, err := e.MergedSnapshot(minSupport)
			if err != nil {
				t.Fatal(err)
			}
			want := mergedFromScratch(t, e, devices, minSupport)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s support %d: incremental merged view diverged: %d/%d pairs/items, want %d/%d",
					label, minSupport, len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
			}
		}
		e.mergeMu.Lock()
		sources := e.mergeIdx.Sources()
		e.mergeMu.Unlock()
		if sources != len(devices) {
			t.Fatalf("%s: merge index holds %d sources, want one per live device (%d)", label, sources, len(devices))
		}
	}
	// requireBounded holds the bounded merged read to the cut of the
	// unbounded ones, and pins what it cost: exactly one sorted export
	// per device dirtied since the last merged read, and none at all
	// when the read is repeated.
	requireBounded := func(label string) {
		t.Helper()
		wantExports := float64(len(dirtied))
		clear(dirtied)
		before := exports()
		st, _, _, err := e.MergedState(2, 0.1, 5, core.WantPairs|core.WantRules)
		if err != nil {
			t.Fatal(err)
		}
		if got := exports() - before; got != wantExports {
			t.Fatalf("%s: a bounded merged read derived %v sorted exports, want %v (one per dirtied device)", label, got, wantExports)
		}
		before = exports()
		if _, _, _, err := e.MergedState(2, 0.1, 5, core.WantPairs|core.WantRules); err != nil {
			t.Fatal(err)
		}
		if got := exports() - before; got != 0 {
			t.Fatalf("%s: a repeated bounded merged read derived %v sorted exports, want none", label, got)
		}
		wantTop := mergedFromScratch(t, e, devices, 0).TopRules(2, 0.1, 5)
		if !reflect.DeepEqual(st.Rules, wantTop) {
			t.Fatalf("%s: MergedState rules != the oracle's top 5 (%d vs %d rules)", label, len(st.Rules), len(wantTop))
		}
		want := mergedFromScratch(t, e, devices, 2)
		if st.TotalPairs != len(want.Pairs) || !reflect.DeepEqual(st.Pairs, want.TopPairs(5)) {
			t.Fatalf("%s: MergedState pairs != merged snapshot's top 5 (total %d, want %d)", label, st.TotalPairs, len(want.Pairs))
		}
	}

	for round := 0; round < 25; round++ {
		// Steady state: every round dirties exactly one device, the
		// shape the incremental maintainer is built for. Which kind of
		// read meets the dirty device first alternates.
		burst(devices[rng.Intn(len(devices))])
		label := fmt.Sprintf("round %d", round)
		if round%2 == 0 {
			requireBounded(label)
			requireMerged(label)
		} else {
			requireMerged(label)
			requireBounded(label)
		}
	}
	// Every device's export the index was fed was rebuilt once, the
	// first, and patched from its own captures' change records since:
	// the bursts evict nothing, so no discard ring lapped.
	var patched float64
	for _, id := range devices {
		if v := metricValue(t, e, MetricExportRebuilt, id); v != 1 {
			t.Errorf("%s{device=%q} = %v after the steady rounds, want 1 (the first export)", MetricExportRebuilt, id, v)
		}
		patched += metricValue(t, e, MetricExportPatched, id)
	}
	if patched == 0 {
		t.Errorf("%s is 0 on every device after 25 dirtyings, want the later exports patched", MetricExportPatched)
	}

	// Unregistering a device must replay its contribution out of the
	// merged view; registering a fresh one must fold it in.
	if err := e.Unregister("vol1"); err != nil {
		t.Fatal(err)
	}
	devices = []string{"vol0", "vol2", "vol3"}
	requireMerged("after unregister")
	if err := e.Register("vol4"); err != nil {
		t.Fatal(err)
	}
	devices = append(devices, "vol4")
	burst("vol4")
	requireMerged("after register")

	// A supervised restart puts the checkpointed state in new analyzers:
	// their captures cannot say what changed since the old ones', so the
	// export fed must be rebuilt, and exports after that patch again.
	waitHealth(t, e, "vol2", func(h DeviceHealthStatus) bool { return h.CheckpointSeq > 0 }, "a checkpoint to restore")
	rebuilt := metricValue(t, e, MetricExportRebuilt, "vol2")
	poisonEvent := blktrace.Event{Time: clock, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: poison, Len: 8}}
	if err := e.Submit("vol2", poisonEvent); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, e, "vol2", func(h DeviceHealthStatus) bool { return h.Restarts >= 1 && h.State != Failed }, "restart after panic")
	requireMerged("after restart")
	if v := metricValue(t, e, MetricExportRebuilt, "vol2"); v != rebuilt+1 {
		t.Errorf("%s{device=\"vol2\"} went %v -> %v across a restart, want one rebuild", MetricExportRebuilt, rebuilt, v)
	}
	submitted["vol2"] = waitDrained(t, e, "vol2", 0).Monitor.Events
	burst("vol2")
	requireBounded("after restart and burst")
	requireMerged("after restart and burst")
	if v := metricValue(t, e, MetricExportRebuilt, "vol2"); v != rebuilt+1 {
		t.Errorf("%s{device=\"vol2\"} = %v after the restarted device's next export, want it patched (%v)", MetricExportRebuilt, v, rebuilt+1)
	}

	// A device out of restart budget is dropped from the view, the
	// healthy devices' sources left as they are.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := e.Submit("vol3", poisonEvent)
		if errors.Is(err, ErrDeviceUnavailable) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("vol3 never failed; health: %+v", e.Health())
		}
		time.Sleep(time.Millisecond)
	}
	waitHealth(t, e, "vol3", func(h DeviceHealthStatus) bool { return h.State == Failed }, "failed")
	devices = []string{"vol0", "vol2", "vol4"}
	requireMerged("after failure")
	requireBounded("after failure")
}

func TestMergedIncrementalEqualsScratch(t *testing.T) {
	for _, parts := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("parts-%d", parts), func(t *testing.T) {
			testMergedIncrementalEqualsScratch(t, parts)
		})
	}
}

// feedEpochs submits evs one at a time, each once the device's epoch
// has taken in the one before, so that every event is its own batch
// and the device ends len(evs) epochs above the one it started at.
func feedEpochs(t *testing.T, e *Engine, id string, evs []blktrace.Event) {
	t.Helper()
	start, err := e.Epoch(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if err := e.Submit(id, ev); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			ep, err := e.Epoch(id)
			if err != nil {
				t.Fatal(err)
			}
			if ep >= start+uint64(i+1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: epoch %d after %d events from %d", id, ep, i+1, start)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if ep, err := e.Epoch(id); err != nil || ep != start+uint64(len(evs)) {
		t.Fatalf("%s: epoch %d (%v) after %d single-event batches from %d, want %d", id, ep, err, len(evs), start, start+uint64(len(evs)))
	}
}

// correlatedEvents returns five events at base and base+16 (one
// transaction), base+1000 and base+1016 (another), and base+2000,
// spaced so that each later pair closes the transaction before it.
func correlatedEvents(base uint64) []blktrace.Event {
	evs := make([]blktrace.Event, 0, 5)
	for i, off := range []uint64{0, 16, 1000, 1016, 2000} {
		at := int64(i/2) * int64(time.Second)
		if i%2 == 1 {
			at += 10_000
		}
		evs = append(evs, blktrace.Event{Time: at, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: base + off, Len: 8}})
	}
	return evs
}

// TestMergedViewAfterReregister pins that a device unregistered and
// registered again under the same ID, then fed to the epoch count the
// old one had, is a new source to the merged view: the old device's
// correlations are gone and the new one's are there.
func TestMergedViewAfterReregister(t *testing.T) {
	e := watchEngine(t, "vol0")
	defer e.Stop()
	pair := func(a, b uint64) blktrace.Pair {
		return blktrace.Pair{A: blktrace.Extent{Block: a, Len: 8}, B: blktrace.Extent{Block: b, Len: 8}}
	}
	holds := func(pairs []core.PairCount, p blktrace.Pair) bool {
		for _, pc := range pairs {
			if pc.Pair == p {
				return true
			}
		}
		return false
	}
	oldPair, newPair := pair(8, 24), pair(4000, 4016)

	feedEpochs(t, e, "vol0", correlatedEvents(8))
	before, err := e.MergedSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if !holds(before.Pairs, oldPair) {
		t.Fatalf("merged view lacks %v before the re-registration: %v", oldPair, before.Pairs)
	}

	if err := e.Unregister("vol0"); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("vol0"); err != nil {
		t.Fatal(err)
	}
	feedEpochs(t, e, "vol0", correlatedEvents(4000))

	want, err := e.Snapshot("vol0", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.MergedSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if holds(got.Pairs, oldPair) || !holds(got.Pairs, newPair) {
		t.Fatalf("MergedSnapshot after re-registration: holds old %v = %v, new %v = %v; want only the new device's pairs",
			oldPair, holds(got.Pairs, oldPair), newPair, holds(got.Pairs, newPair))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergedSnapshot of a one-device fleet = %d/%d pairs/items, the device's own export %d/%d",
			len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
	}
	st, _, _, err := e.MergedState(0, 0, 64, core.WantPairs)
	if err != nil {
		t.Fatal(err)
	}
	if holds(st.Pairs, oldPair) || !holds(st.Pairs, newPair) {
		t.Fatalf("MergedState after re-registration: holds old %v = %v, new %v = %v; want only the new device's pairs",
			oldPair, holds(st.Pairs, oldPair), newPair, holds(st.Pairs, newPair))
	}
}

// TestMergedStateAllocsFlatAcrossFleet pins the merged read's
// allocation contract: once warm, a bounded merged read that follows
// one dirtied device allocates for that device's export and its K-entry
// results, and for nothing that grows with the number of devices.
func TestMergedStateAllocsFlatAcrossFleet(t *testing.T) {
	measure := func(n int) float64 {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("vol%02d", i)
		}
		e := watchEngine(t, ids...)
		defer e.Stop()
		for _, id := range ids {
			feedEpochs(t, e, id, correlatedEvents(8))
		}
		read := func() {
			if _, _, _, err := e.MergedState(1, 0.1, 64, core.WantPairs|core.WantRules); err != nil {
				t.Fatal(err)
			}
		}
		read()
		var clock int64 = 10 * int64(time.Second)
		dirty := func(round int) {
			before, _ := e.Epoch(ids[0])
			for i, off := range []uint64{0, 16} {
				ev := blktrace.Event{Time: clock + int64(i)*10_000, Op: blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(8000+64*(round%8)) + off, Len: 8}}
				if err := e.Submit(ids[0], ev); err != nil {
					t.Fatal(err)
				}
			}
			clock += int64(time.Second)
			for ep, _ := e.Epoch(ids[0]); ep == before; ep, _ = e.Epoch(ids[0]) {
				time.Sleep(time.Millisecond)
			}
		}
		for round := 0; round < 8; round++ { // warm: every buffer at size
			dirty(round)
			read()
		}
		const rounds = 16
		var ms runtime.MemStats
		var total uint64
		for round := 0; round < rounds; round++ {
			dirty(round)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			read()
			runtime.ReadMemStats(&ms)
			total += ms.Mallocs - before
		}
		return float64(total) / rounds
	}
	small, large := measure(4), measure(64)
	t.Logf("allocations per merged read: %.1f at 4 devices, %.1f at 64", small, large)
	if math.Abs(large-small) > 1 {
		t.Errorf("a merged read after one dirtied device allocates %.1f times at 4 devices and %.1f at 64, want the same within 1", small, large)
	}
}
