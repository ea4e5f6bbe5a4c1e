package realtime

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
	"daccor/internal/workload"
)

// The single-device deployment — an engine with one registered device —
// as a service consumes it: events in from producers while consumers
// query, a final state read before Stop, typed refusals after it.

const deviceID = "device0"

// startOne starts a one-device engine under Block backpressure (nothing
// is dropped, so counts are exact); extra options override.
func startOne(t *testing.T, extra ...engine.Option) *engine.Engine {
	t.Helper()
	opts := append([]engine.Option{
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		engine.WithBackpressure(engine.Block),
		engine.WithDevices(deviceID),
	}, extra...)
	e, err := engine.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitEvents polls until the device's monitor has consumed want events.
// Queries are served concurrently with ingestion, so a test reads the
// live state only after this.
func waitEvents(t *testing.T, e *engine.Engine, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds, err := e.DeviceStatsFor(deviceID)
		must(t, err)
		if ds.Monitor.Events >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("device consumed %d/%d events before deadline", ds.Monitor.Events, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubmitBatch(t *testing.T) {
	e := startOne(t)
	evs := make([]blktrace.Event, 16)
	for i := range evs {
		evs[i] = blktrace.Event{Time: int64(i) * int64(time.Second), Op: blktrace.OpRead,
			Extent: blktrace.Extent{Block: uint64(10 + i%2*10), Len: 1}}
	}
	must(t, e.SubmitBatch(deviceID, evs))
	bad := append([]blktrace.Event(nil), evs...)
	bad[3].Extent.Len = 0
	if err := e.SubmitBatch(deviceID, bad); err == nil {
		t.Error("want validation error for bad batch event")
	}
	waitEvents(t, e, 16)
	ds, err := e.DeviceStatsFor(deviceID)
	must(t, err)
	if ds.Monitor.Events != 16 {
		t.Errorf("monitor saw %d events, want 16 (the rejected batch must leave nothing behind)", ds.Monitor.Events)
	}
	e.Stop()
	if err := e.SubmitBatch(deviceID, evs[:3]); !errors.Is(err, engine.ErrStopped) {
		t.Errorf("SubmitBatch after stop = %v, want ErrStopped", err)
	}
}

func TestEndToEndConcurrent(t *testing.T) {
	syn, err := workload.Generate(workload.SyntheticConfig{
		Kind:        workload.OneToOne,
		Occurrences: 800,
		Seed:        5,
	})
	must(t, err)
	e := startOne(t)

	// Producer feeds events while a consumer polls snapshots and stats.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, ev := range syn.Trace.Events {
			if err := e.Submit(deviceID, ev); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			e.ObserveLatency(deviceID, int64(40*time.Microsecond))
		}
	}()
	queries := 0
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := e.Snapshot(deviceID, 1); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			if _, err := e.DeviceStatsFor(deviceID); err != nil {
				t.Errorf("Stats: %v", err)
				return
			}
			queries++
		}
	}()
	wg.Wait()

	// Read the final state once every submitted event has been consumed
	// (queries fail after Stop by design).
	waitEvents(t, e, uint64(syn.Trace.Len()))
	snap, err := e.Snapshot(deviceID, 1)
	must(t, err)
	e.Stop()

	counts := map[blktrace.Pair]uint32{}
	for _, pc := range snap.Pairs {
		counts[pc.Pair] = pc.Count
	}
	for rank, corr := range syn.Correlations {
		if counts[corr.Pairs()[0]] < 5 {
			t.Errorf("planted pair rank %d missing after concurrent run", rank)
		}
	}
	if queries != 50 {
		t.Errorf("consumer completed %d/50 queries", queries)
	}
}

func TestFinalStateViaPreStopQuery(t *testing.T) {
	syn, err := workload.Generate(workload.SyntheticConfig{
		Kind:        workload.ManyToMany,
		Occurrences: 400,
		Seed:        6,
	})
	must(t, err)
	e := startOne(t)
	for _, ev := range syn.Trace.Events {
		must(t, e.Submit(deviceID, ev))
	}
	waitEvents(t, e, uint64(syn.Trace.Len()))
	snap, err := e.Snapshot(deviceID, 2)
	must(t, err)
	if len(snap.Pairs) == 0 {
		t.Error("live snapshot empty after full workload")
	}
	// A live save must also succeed mid-session.
	var buf bytes.Buffer
	must(t, e.WriteSnapshot(deviceID, &buf))
	restored, err := core.LoadAnalyzer(&buf)
	if err != nil {
		t.Fatalf("live snapshot not loadable: %v", err)
	}
	if restored.Pairs().Len() == 0 {
		t.Error("restored live snapshot empty")
	}
	e.Stop()
	if err := e.WriteSnapshot(deviceID, &buf); !errors.Is(err, engine.ErrStopped) {
		t.Errorf("WriteSnapshot after stop = %v, want ErrStopped", err)
	}
}

func TestQueriesAfterStop(t *testing.T) {
	e := startOne(t)
	e.Stop()
	e.Stop() // idempotent
	if _, err := e.Snapshot(deviceID, 1); !errors.Is(err, engine.ErrStopped) {
		t.Errorf("Snapshot after stop = %v, want ErrStopped", err)
	}
	if _, _, err := e.State(deviceID, 1, 0, 1, core.WantRules); !errors.Is(err, engine.ErrStopped) {
		t.Errorf("State after stop = %v, want ErrStopped", err)
	}
	if _, err := e.DeviceStatsFor(deviceID); !errors.Is(err, engine.ErrStopped) {
		t.Errorf("Stats after stop = %v, want ErrStopped", err)
	}
	ev := blktrace.Event{Time: 0, Op: blktrace.OpRead,
		Extent: blktrace.Extent{Block: 1, Len: 1}}
	if err := e.Submit(deviceID, ev); !errors.Is(err, engine.ErrStopped) {
		t.Errorf("Submit after stop = %v, want ErrStopped", err)
	}
	e.ObserveLatency(deviceID, 1) // must not panic or block
}

func TestDropOnBackpressure(t *testing.T) {
	e := startOne(t, engine.WithQueueSize(4), engine.WithBackpressure(engine.DropOldest))
	// Flood far beyond the queue from many goroutines. Some events may
	// drop — but none may block.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				ev := blktrace.Event{Time: int64(i), Op: blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(g*100000 + i), Len: 1}}
				if err := e.Submit(deviceID, ev); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ds, err := e.DeviceStatsFor(deviceID)
	must(t, err)
	e.Stop()
	if ds.Analyzer.Extents+ds.Dropped == 0 {
		t.Error("nothing processed and nothing dropped")
	}
	t.Logf("processed %d extents, dropped %d", ds.Analyzer.Extents, ds.Dropped)
}

func TestRulesQuery(t *testing.T) {
	e := startOne(t)
	defer e.Stop()
	a := blktrace.Extent{Block: 10, Len: 1}
	b := blktrace.Extent{Block: 20, Len: 1}
	for i := 0; i < 5; i++ {
		base := int64(i) * int64(time.Second)
		must(t, e.Submit(deviceID, blktrace.Event{Time: base, Op: blktrace.OpRead, Extent: a}))
		must(t, e.Submit(deviceID, blktrace.Event{Time: base + 1000, Op: blktrace.OpRead, Extent: b}))
	}
	waitEvents(t, e, 10)
	st, _, err := e.State(deviceID, 3, 0.5, 10, core.WantRules)
	must(t, err)
	if rules := st.Rules; len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
}

// TestCollectorPartitioned runs the single-device deployment with its
// analyzer split across four partition workers: the same correlated
// workload must surface exactly the rules the unpartitioned device
// finds, through the merged per-device view, and its one-file snapshot
// must load back to them.
func TestCollectorPartitioned(t *testing.T) {
	syn, err := workload.Generate(workload.SyntheticConfig{
		Kind:        workload.OneToMany,
		Occurrences: 600,
		Seed:        3,
	})
	must(t, err)
	run := func(parts int) ([]core.Rule, *core.Analyzer) {
		e := startOne(t, engine.WithPartitions(parts))
		defer e.Stop()
		must(t, e.SubmitBatch(deviceID, syn.Trace.Events))
		waitEvents(t, e, uint64(syn.Trace.Len()))
		snap, err := e.Snapshot(deviceID, 0)
		must(t, err)
		rules := snap.TopRules(2, 0.5, 0)
		var buf bytes.Buffer
		must(t, e.WriteSnapshot(deviceID, &buf))
		restored, err := core.LoadAnalyzer(&buf)
		if err != nil {
			t.Fatalf("P=%d snapshot not loadable: %v", parts, err)
		}
		return rules, restored
	}
	want, _ := run(1)
	if len(want) == 0 {
		t.Fatal("no rules in a correlated workload")
	}
	got, restored := run(4)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("P=4 found %d rules, P=1 %d, or they differ", len(got), len(want))
	}
	if fromFile := restored.Rules(2, 0.5); !reflect.DeepEqual(fromFile, want) {
		t.Errorf("merged snapshot restores to %d rules, live view has %d, or they differ", len(fromFile), len(want))
	}
}
