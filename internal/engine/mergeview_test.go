package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// The engine's merged read path is incrementally maintained (only
// devices whose epoch moved are fed, capture by capture, into the merge
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
	var clock int64
	burst := func(id string) {
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
	// merge of the live devices, and the index to one source per
	// partition of each of them and no other.
	requireMerged := func(label string) {
		t.Helper()
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
		if sources != parts*len(devices) {
			t.Fatalf("%s: merge index holds %d sources, want %d (%d partitions of %d live devices)",
				label, sources, parts*len(devices), parts, len(devices))
		}
	}
	// requireBounded holds the bounded merged read to the cut of the
	// unbounded ones, and pins that it got there without any device
	// deriving a sorted export.
	requireBounded := func(label string) {
		t.Helper()
		before := exports()
		st, _, _, err := e.MergedState(2, 0.1, 5, core.WantPairs|core.WantRules)
		if err != nil {
			t.Fatal(err)
		}
		if after := exports(); after != before {
			t.Fatalf("%s: a bounded merged read derived %v sorted exports, want none", label, after-before)
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
	// Every device was reconciled into the index once, on its first
	// feed, and advanced from its own captures' change records since:
	// the bursts evict nothing, so no discard ring lapped.
	var patched float64
	for _, id := range devices {
		if v := metricValue(t, e, MetricMergeFeedReconciled, id); v != 1 {
			t.Errorf("%s{device=%q} = %v after the steady rounds, want 1 (the first feed)", MetricMergeFeedReconciled, id, v)
		}
		patched += metricValue(t, e, MetricMergeFeedPatched, id)
	}
	if patched == 0 {
		t.Errorf("%s is 0 on every device after 25 dirtyings, want the later feeds patched", MetricMergeFeedPatched)
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
	// feed must reconcile, and feeds after that patch again.
	waitHealth(t, e, "vol2", func(h DeviceHealthStatus) bool { return h.CheckpointSeq > 0 }, "a checkpoint to restore")
	reconciled := metricValue(t, e, MetricMergeFeedReconciled, "vol2")
	poisonEvent := blktrace.Event{Time: clock, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: poison, Len: 8}}
	if err := e.Submit("vol2", poisonEvent); err != nil {
		t.Fatal(err)
	}
	waitHealth(t, e, "vol2", func(h DeviceHealthStatus) bool { return h.Restarts >= 1 && h.State != Failed }, "restart after panic")
	requireMerged("after restart")
	if v := metricValue(t, e, MetricMergeFeedReconciled, "vol2"); v != reconciled+1 {
		t.Errorf("%s{device=\"vol2\"} went %v -> %v across a restart, want one reconcile", MetricMergeFeedReconciled, reconciled, v)
	}
	submitted["vol2"] = waitDrained(t, e, "vol2", 0).Monitor.Events
	burst("vol2")
	requireBounded("after restart and burst")
	requireMerged("after restart and burst")
	if v := metricValue(t, e, MetricMergeFeedReconciled, "vol2"); v != reconciled+1 {
		t.Errorf("%s{device=\"vol2\"} = %v after the restarted device's next feed, want it patched (%v)", MetricMergeFeedReconciled, v, reconciled+1)
	}

	// A device out of restart budget is dropped from the view: every one
	// of its partition sources, the healthy devices' left as they are.
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
