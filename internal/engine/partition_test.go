package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
	"daccor/internal/workload"
)

// partitionedTrace is a deterministic correlated workload shared by the
// differential tests.
func partitionedTrace(t *testing.T) *blktrace.Trace {
	t.Helper()
	syn, err := workload.Generate(workload.SyntheticConfig{
		Kind: workload.ManyToMany, Occurrences: 800, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return syn.Trace
}

// runTraceThrough builds an engine with the given partition count,
// feeds it the trace from a single producer under Block (no drops, no
// producer-side reordering), and returns its snapshot, rules, and
// stats.
func runTraceThrough(t *testing.T, parts int, trace *blktrace.Trace) (core.Snapshot, []core.Rule, DeviceStats) {
	t.Helper()
	e := mustEngine(t,
		WithDevices("dev"),
		WithBackpressure(Block),
		WithPartitions(parts),
	)
	defer e.Stop()
	dev, err := e.Device("dev")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.Events {
		if err := dev.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, e, "dev", uint64(trace.Len()))
	snap, err := e.Snapshot("dev", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every rule: a pair yields at most two.
	st, _, err := e.State("dev", 2, 0.1, 2*len(snap.Pairs)+1, core.WantRules)
	if err != nil {
		t.Fatal(err)
	}
	rules := st.Rules
	ds, err := e.DeviceStatsFor("dev")
	if err != nil {
		t.Fatal(err)
	}
	return snap, rules, ds
}

// TestPartitionedMatchesSingle is the tentpole's correctness
// differential: the same trace through a P-partitioned device must
// produce a merged snapshot semantically identical to P=1 — same
// entries, same counts, same rules — in the no-eviction regime (the
// test capacities hold the whole workload). Snapshots are sorted
// deterministically, so identity is literal equality.
func TestPartitionedMatchesSingle(t *testing.T) {
	trace := partitionedTrace(t)
	wantSnap, wantRules, wantStats := runTraceThrough(t, 1, trace)
	if len(wantSnap.Pairs) == 0 || len(wantRules) == 0 {
		t.Fatalf("degenerate reference: %d pairs, %d rules", len(wantSnap.Pairs), len(wantRules))
	}
	// The P=1 stats are themselves checked against the library pipeline
	// fed the same events (no Flush: the engine's transaction is open
	// too), so the loop below holds every P to that oracle.
	ref := testPipeline(t)
	for _, ev := range trace.Events {
		if err := ref.HandleIssue(ev); err != nil {
			t.Fatal(err)
		}
	}
	if wantStats.Monitor != ref.Monitor().Stats() || wantStats.Window != ref.WindowDuration() ||
		wantStats.Analyzer.Transactions != ref.Analyzer().Stats().Transactions {
		t.Errorf("P=1 stats = monitor %+v, window %v, %d transactions; pipeline has %+v, %v, %d",
			wantStats.Monitor, wantStats.Window, wantStats.Analyzer.Transactions,
			ref.Monitor().Stats(), ref.WindowDuration(), ref.Analyzer().Stats().Transactions)
	}
	for _, parts := range []int{2, 4, 7} {
		snap, rules, stats := runTraceThrough(t, parts, trace)
		if !reflect.DeepEqual(snap, wantSnap) {
			t.Errorf("P=%d snapshot differs from P=1: %d/%d items, %d/%d pairs",
				parts, len(snap.Items), len(wantSnap.Items), len(snap.Pairs), len(wantSnap.Pairs))
		}
		if !reflect.DeepEqual(rules, wantRules) {
			t.Errorf("P=%d rules differ from P=1: %d vs %d", parts, len(rules), len(wantRules))
		}
		if stats.Partitions != parts {
			t.Errorf("P=%d DeviceStats.Partitions = %d", parts, stats.Partitions)
		}
		// Merged stats must agree with the P=1 run on every
		// device-level counter.
		if stats.Analyzer != wantStats.Analyzer {
			t.Errorf("P=%d analyzer stats = %+v, want %+v", parts, stats.Analyzer, wantStats.Analyzer)
		}
		if stats.Monitor != wantStats.Monitor {
			t.Errorf("P=%d monitor stats = %+v, want %+v", parts, stats.Monitor, wantStats.Monitor)
		}
		if stats.Window != wantStats.Window {
			t.Errorf("P=%d window = %v, want %v", parts, stats.Window, wantStats.Window)
		}
	}
}

// TestPartitionedWriteSnapshotLoadable: a partitioned device's
// WriteSnapshot is one merged file in the standard synopsis format,
// loadable by core.LoadAnalyzer, equal to the P=1 encoding's content.
func TestPartitionedWriteSnapshotLoadable(t *testing.T) {
	trace := partitionedTrace(t)
	wantSnap, _, _ := runTraceThrough(t, 1, trace)

	e := mustEngine(t, WithDevices("dev"), WithBackpressure(Block), WithPartitions(4))
	defer e.Stop()
	dev, err := e.Device("dev")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.Events {
		if err := dev.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, e, "dev", uint64(trace.Len()))

	var buf bytes.Buffer
	if err := e.WriteSnapshot("dev", &buf); err != nil {
		t.Fatal(err)
	}
	a, err := core.LoadAnalyzer(&buf)
	if err != nil {
		t.Fatalf("merged encoding not loadable: %v", err)
	}
	if got := a.Snapshot(0); !reflect.DeepEqual(got, wantSnap) {
		t.Errorf("loaded merged snapshot differs: %d/%d items, %d/%d pairs",
			len(got.Items), len(wantSnap.Items), len(got.Pairs), len(wantSnap.Pairs))
	}
}

// TestPartitionedCheckpointRoundTrip: a P=4 device's checkpoint is a
// single merged generation that a P=1 engine can restore — and vice
// versa — because the merged encoding is the standard synopsis format
// re-split on restore.
func TestPartitionedCheckpointRoundTrip(t *testing.T) {
	trace := partitionedTrace(t)
	wantSnap, _, _ := runTraceThrough(t, 1, trace)
	dir := t.TempDir()

	store, err := checkpoint.Open(checkpoint.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t,
		WithDevices("dev"),
		WithBackpressure(Block),
		WithPartitions(4),
		WithCheckpoints(store, time.Hour), // only the stop-path flush matters
	)
	dev, err := e.Device("dev")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.Events {
		if err := dev.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, e, "dev", uint64(trace.Len()))
	e.Stop() // flushes the open transaction and writes the final checkpoint

	for _, parts := range []int{1, 4} {
		store2, err := checkpoint.Open(checkpoint.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		e2 := mustEngine(t,
			WithDevices("dev"),
			WithBackpressure(Block),
			WithPartitions(parts),
			WithCheckpoints(store2, time.Hour),
		)
		snap, err := e2.Snapshot("dev", 0)
		if err != nil {
			t.Fatal(err)
		}
		// The checkpoint was written after the stop flush, so it holds
		// one more (flushed) transaction's worth of state than the
		// pre-stop reference snapshot; compare pair presence and counts
		// at least as large instead of strict equality.
		counts := snap.PairCounts()
		for p, c := range wantSnap.PairCounts() {
			if counts[p] < c {
				t.Errorf("restore at P=%d: pair %v count %d < %d", parts, p, counts[p], c)
			}
		}
		ds, err := e2.DeviceStatsFor("dev")
		if err != nil {
			t.Fatal(err)
		}
		if ds.Analyzer.Transactions == 0 {
			t.Errorf("restore at P=%d lost the transaction total", parts)
		}
		e2.Stop()
	}
}

// TestPartitionedValidation: partition-count bounds and unsplittable
// capacities fail at construction.
func TestPartitionedValidation(t *testing.T) {
	if _, err := New(testOptions(WithPartitions(0))...); err == nil {
		t.Error("want error for 0 partitions")
	}
	if _, err := New(testOptions(WithPartitions(MaxPartitions + 1))...); err == nil {
		t.Error("want error for > MaxPartitions")
	}
	if _, err := New(testOptions(WithReorderBuffer(-1))...); err == nil {
		t.Error("want error for negative reorder buffer")
	}
	// Capacities too small to split across the partitions fail early.
	if _, err := New(
		WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
		WithAnalyzer(core.Config{ItemCapacity: 4, PairCapacity: 4}),
		WithPartitions(32),
	); err == nil {
		t.Error("want error for capacities unsplittable across partitions")
	}
}

// TestPartitionedReorderCounters: inversions wider than the reorder
// buffer surface in the reorder_late metric; drop-oldest evictions
// surface in reorder_lost.
func TestPartitionedReorderCounters(t *testing.T) {
	e := mustEngine(t,
		WithDevices("dev"),
		WithBackpressure(Block),
		WithPartitions(2),
		WithReorderBuffer(2),
	)
	defer e.Stop()
	// Timestamps 11..30 ms, then one event back at 1 ms — an inversion
	// far wider than the 2-slot buffer.
	for i := 0; i < 20; i++ {
		if err := e.Submit("dev", readEvent(uint64(1+i%8), 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Submit("dev", readEvent(3, 0)); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, e, "dev", 21)
	if got := metricValue(t, e, MetricReorderLate, "dev"); got < 1 {
		t.Errorf("reorder_late = %v, want >= 1", got)
	}

	// A 1-slot DropOldest ring under a burst must shed and count.
	e2 := mustEngine(t,
		WithDevices("dev"),
		WithBackpressure(DropOldest),
		WithQueueSize(1),
	)
	defer e2.Stop()
	for i := 0; i < 5000; i++ {
		if err := e2.Submit("dev", readEvent(uint64(1+i%8), i)); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, e2, "dev", 5000)
	if got := metricValue(t, e2, MetricReorderLost, "dev"); got < 1 {
		t.Errorf("reorder_lost = %v, want >= 1 after a 5000-event burst through a 1-slot ring", got)
	}
	if got := metricValue(t, e2, MetricPartitions, "dev"); got != 1 {
		t.Errorf("partitions gauge = %v, want 1", got)
	}
}

// TestFaultPartitionedPanicRecovery runs the headline fault scenario
// against a P=4 device: a poison event panics the router mid-stream,
// the whole run (router + 4 partition workers) is torn down, the
// supervisor restores the merged checkpoint, re-splits it across fresh
// partitions, and the device serves queries again. The reorder-late
// counter must survive the restart on the metrics surface.
func TestFaultPartitionedPanicRecovery(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const poison = 999
	e := mustEngine(t,
		WithDevices("dev0"),
		WithPartitions(4),
		WithReorderBuffer(2),
		WithCheckpoints(store, 2*time.Millisecond),
		WithSupervisor(fastSupervisor(5, 8)),
		WithProcessHook(func(device string, ev blktrace.Event) {
			if ev.Extent.Block == poison {
				panic("injected fault")
			}
		}),
	)
	defer e.Stop()

	feedN(t, e, "dev0", 60, 10)
	// An inversion wider than the 2-slot reorder buffer, so the late
	// counter is provably exported before the fault.
	if err := e.Submit("dev0", readEvent(7, 0)); err != nil {
		t.Fatal(err)
	}
	ds := waitDrained(t, e, "dev0", 61)
	// Wait for a checkpoint generation that provably contains every
	// event fed so far. A generation says when it was committed, not when
	// its state was captured: the first one past the drain may be a save
	// that was already in flight, holding an older capture. The device's
	// saves run one after another, so the second one's capture was taken
	// after the first committed — after the drain.
	atDrain := ds.Health.CheckpointSeq
	waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.CheckpointSeq >= atDrain+2
	}, "second post-drain checkpoint")

	if err := e.Submit("dev0", readEvent(poison, 100)); err != nil {
		t.Fatalf("poison submit: %v", err)
	}
	waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.Panics >= 1 && h.Restarts >= 1 && h.State != Failed
	}, "restart after panic")

	after, err := e.DeviceStatsFor("dev0")
	if err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
	if after.Analyzer.Transactions < ds.Analyzer.Transactions {
		t.Errorf("restored partitioned analyzer has %d transactions, want >= %d",
			after.Analyzer.Transactions, ds.Analyzer.Transactions)
	}
	if after.Partitions != 4 {
		t.Errorf("Partitions = %d after restart, want 4", after.Partitions)
	}
	if _, err := e.Snapshot("dev0", 1); err != nil {
		t.Errorf("snapshot after recovery: %v", err)
	}
	if v := metricValue(t, e, MetricReorderLate, "dev0"); v < 1 {
		t.Errorf("%s = %v, want >= 1 (counter lost across restart)", MetricReorderLate, v)
	}
	feedN(t, e, "dev0", 20, 200)
	waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.State == Healthy && h.ConsecutiveRestarts == 0
	}, "healthy after probation")
}

// TestFaultPartitionedBudgetExhaustion: a P=2 device that panics on
// every event must land in Failed with its workers gone, fast-fail
// ingest and queries, and still stop cleanly — the fail/ask race
// protection under the lock-free queues.
func TestFaultPartitionedBudgetExhaustion(t *testing.T) {
	e := mustEngine(t,
		WithDevices("dev0"),
		WithPartitions(2),
		WithSupervisor(fastSupervisor(2, 1<<20)),
		WithProcessHook(func(device string, ev blktrace.Event) {
			panic("always fails")
		}),
	)
	defer e.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		err := e.Submit("dev0", readEvent(uint64(1+i%8), i))
		if errors.Is(err, ErrDeviceUnavailable) {
			break
		}
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("device never failed; health: %+v", e.Health())
		}
		time.Sleep(time.Millisecond)
	}
	waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.State == Failed
	}, "failed after budget exhaustion")
	if _, err := e.Snapshot("dev0", 1); !errors.Is(err, ErrDeviceUnavailable) {
		t.Errorf("snapshot of failed device = %v, want ErrDeviceUnavailable", err)
	}
	cur, err := e.Epoch("dev0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := e.WaitEpoch(ctx, "dev0", cur); !errors.Is(err, ErrDeviceUnavailable) {
		t.Errorf("WaitEpoch on failed device = %v, want ErrDeviceUnavailable", err)
	}
}

// TestPartitionedStress is the -race contract for the partitioned
// path: concurrent multi-producer submit, periodic checkpoints,
// concurrent snapshot/stats/rules readers, and a final unregister —
// all against one P=4 device.
func TestPartitionedStress(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t,
		WithDevices("hot", "cold"),
		WithBackpressure(Block),
		WithPartitions(4),
		WithQueueSize(512),
		WithCheckpoints(store, 2*time.Millisecond),
	)
	const producers = 4
	const perProducer = 4000
	dev, err := e.Device("hot")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]blktrace.Event, 0, 64)
			for i := 0; i < perProducer; i++ {
				batch = append(batch, readEvent(uint64(1+(p*perProducer+i)%512), p*perProducer+i))
				if len(batch) == cap(batch) {
					if err := dev.SubmitBatch(batch); err != nil {
						t.Errorf("producer %d: %v", p, err)
						return
					}
					batch = batch[:0]
				}
				if i%128 == 0 {
					dev.ObserveLatency(int64(50 * time.Microsecond))
				}
			}
			if err := dev.SubmitBatch(batch); err != nil {
				t.Errorf("producer %d tail: %v", p, err)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := e.Snapshot("hot", 1); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			if _, err := e.Stats(); err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			if _, _, err := e.State("hot", 2, 0.1, 64, core.WantPairs|core.WantRules); err != nil {
				t.Errorf("rules: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	waitDrained(t, e, "hot", producers*perProducer)
	ds, err := e.DeviceStatsFor("hot")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Monitor.Events != producers*perProducer {
		t.Errorf("hot device analyzed %d of %d events under Block (no losses allowed)",
			ds.Monitor.Events, producers*perProducer)
	}
	if err := e.Unregister("cold"); err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister("hot"); err != nil {
		t.Fatal(err)
	}
	e.Stop()
}
