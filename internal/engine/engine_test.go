package engine

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
	"daccor/internal/pipeline"
	"daccor/internal/workload"
)

// testConfig is the monitor and analyzer configuration the suite runs
// under, in the library pipeline's shape.
var testConfig = pipeline.Config{
	Monitor:  monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)},
	Analyzer: core.Config{ItemCapacity: 4096, PairCapacity: 4096},
}

func testOptions(extra ...Option) []Option {
	opts := []Option{WithMonitor(testConfig.Monitor), WithAnalyzer(testConfig.Analyzer)}
	return append(opts, extra...)
}

// testPipeline is the single-threaded library pipeline under testConfig:
// the oracle engine state is compared to.
func testPipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.New(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustEngine(t *testing.T, extra ...Option) *Engine {
	t.Helper()
	e, err := New(testOptions(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitDrained polls until the device has consumed (or dropped) at
// least want events.
func waitDrained(t *testing.T, e *Engine, id string, want uint64) DeviceStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds, err := e.DeviceStatsFor(id)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Monitor.Events+ds.Dropped >= want && ds.Lag == 0 {
			return ds
		}
		if time.Now().After(deadline) {
			t.Fatalf("device %s consumed %d+%d dropped of %d events before deadline",
				id, ds.Monitor.Events, ds.Dropped, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("want error for zero analyzer capacities")
	}
	if _, err := New(testOptions(WithQueueSize(-1))...); err == nil {
		t.Error("want error for negative queue size")
	}
	if _, err := New(testOptions(WithBackpressure(Backpressure(42)))...); err == nil {
		t.Error("want error for unknown policy")
	}
	if _, err := New(testOptions(WithDevices("a", "a"))...); !errors.Is(err, ErrDuplicateDevice) {
		t.Errorf("duplicate device = %v, want ErrDuplicateDevice", err)
	}
	if _, err := New(testOptions(WithDevices(""))...); err == nil {
		t.Error("want error for empty device id")
	}
	if _, err := New(WithAnalyzer(core.Config{ItemCapacity: core.MaxSnapshotCapacity + 1, PairCapacity: 16})); err == nil {
		t.Error("want error for an item capacity no checkpoint of it could be restored at")
	}
}

func TestRegisterAndDevices(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0", "vol1"))
	defer e.Stop()
	if err := e.Register("vol2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("vol0"); !errors.Is(err, ErrDuplicateDevice) {
		t.Errorf("re-register = %v, want ErrDuplicateDevice", err)
	}
	want := []string{"vol0", "vol1", "vol2"}
	if got := e.Devices(); !reflect.DeepEqual(got, want) {
		t.Errorf("Devices() = %v, want %v", got, want)
	}
}

func TestUnknownDevice(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"))
	defer e.Stop()
	ev := blktrace.Event{Time: 0, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 1, Len: 1}}
	if err := e.Submit("nope", ev); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("Submit = %v, want ErrUnknownDevice", err)
	}
	if _, err := e.Snapshot("nope", 1); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("Snapshot = %v, want ErrUnknownDevice", err)
	}
	if _, _, err := e.State("nope", 1, 0, 1, core.WantRules); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("State = %v, want ErrUnknownDevice", err)
	}
	if _, err := e.Device("nope"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("Device = %v, want ErrUnknownDevice", err)
	}
	if _, err := e.DeviceStatsFor("nope"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("DeviceStatsFor = %v, want ErrUnknownDevice", err)
	}
	e.ObserveLatency("nope", 1) // must not panic
}

func TestSubmitValidates(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"))
	defer e.Stop()
	bad := blktrace.Event{Time: 0, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 1, Len: 0}}
	if err := e.Submit("vol0", bad); err == nil {
		t.Error("want validation error")
	}
}

// TestTwoDevicesConcurrent hammers two devices from concurrent
// producers while consumers poll per-device and merged state — the
// engine's core concurrency contract, meant to run under -race.
func TestTwoDevicesConcurrent(t *testing.T) {
	synA, err := workload.Generate(workload.SyntheticConfig{
		Kind: workload.OneToOne, Occurrences: 600, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	synB, err := workload.Generate(workload.SyntheticConfig{
		Kind: workload.ManyToMany, Occurrences: 400, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, WithDevices("vol0", "vol1"), WithBackpressure(Block))

	feeds := map[string]*blktrace.Trace{"vol0": synA.Trace, "vol1": synB.Trace}
	var wg sync.WaitGroup
	for id, trace := range feeds {
		dev, err := e.Device(id)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(dev *Device, trace *blktrace.Trace) {
			defer wg.Done()
			for _, ev := range trace.Events {
				if err := dev.Submit(ev); err != nil {
					t.Errorf("submit %s: %v", dev.ID(), err)
					return
				}
				dev.ObserveLatency(int64(40 * time.Microsecond))
			}
		}(dev, trace)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := e.MergedSnapshot(1); err != nil {
				t.Errorf("MergedSnapshot: %v", err)
				return
			}
			if _, err := e.Stats(); err != nil {
				t.Errorf("Stats: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	waitDrained(t, e, "vol0", uint64(synA.Trace.Len()))
	waitDrained(t, e, "vol1", uint64(synB.Trace.Len()))

	// Per-device views recover each device's planted correlations.
	snapA, err := e.Snapshot("vol0", 1)
	if err != nil {
		t.Fatal(err)
	}
	countsA := snapA.PairCounts()
	for rank, corr := range synA.Correlations {
		if countsA[corr.Pairs()[0]] < 5 {
			t.Errorf("vol0 planted pair rank %d missing after concurrent run", rank)
		}
	}
	// The merged view covers both devices' pairs with counts no lower
	// than either per-device view.
	snapB, err := e.Snapshot("vol1", 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := e.MergedSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	mergedCounts := merged.PairCounts()
	for p, c := range countsA {
		if mergedCounts[p] < c {
			t.Errorf("merged count for %v = %d, below vol0's %d", p, mergedCounts[p], c)
		}
	}
	for p, c := range snapB.PairCounts() {
		if mergedCounts[p] < c {
			t.Errorf("merged count for %v = %d, below vol1's %d", p, mergedCounts[p], c)
		}
	}
	e.Stop()
}

// TestMergedEqualsSingleAnalyzerN1 is the regression check for the
// aggregation layer and for the one-analyzer ingest spine under it: with
// one device, the engine's merged output must be identical to running
// the same trace through a bare single-analyzer pipeline, and its
// WriteSnapshot byte-identical to that analyzer's WriteTo — before a
// Stop, and again on a second engine that restored the first one's final
// checkpoint and took the rest of the trace (restore ≡ never-crashed).
func TestMergedEqualsSingleAnalyzerN1(t *testing.T) {
	syn, err := workload.Generate(workload.SyntheticConfig{
		Kind: workload.ManyToMany, Occurrences: 500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the plain single-threaded pipeline, fed the same
	// events without a final Flush (the engine flushes on Stop, which
	// is after the state we compare — both sides hold the same open
	// transaction).
	ref := testPipeline(t)
	// feed runs evs through the reference and through a fresh N=1 engine
	// on the store, and compares the two.
	feed := func(label string, evs []blktrace.Event) *Engine {
		t.Helper()
		for _, ev := range evs {
			if err := ref.HandleIssue(ev); err != nil {
				t.Fatal(err)
			}
		}
		want := ref.Snapshot(1)
		e := mustEngine(t, WithDevices("only"), WithBackpressure(Block), WithCheckpoints(store, time.Hour))
		dev, err := e.Device("only")
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := dev.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
		waitDrained(t, e, "only", uint64(len(evs)))
		got, err := e.MergedSnapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: N=1 merged snapshot diverges from single-analyzer run: %d vs %d pairs",
				label, len(got.Pairs), len(want.Pairs))
		}
		var gotBytes, wantBytes bytes.Buffer
		if err := e.WriteSnapshot("only", &gotBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Analyzer().WriteTo(&wantBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("%s: WriteSnapshot (%d bytes) is not the reference analyzer's WriteTo (%d bytes)",
				label, gotBytes.Len(), wantBytes.Len())
		}
		return e
	}

	half := syn.Trace.Len() / 2
	e := feed("first half", syn.Trace.Events[:half])
	// MergeSnapshots over one export must also be the identity.
	single, err := e.Snapshot("only", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(core.MergeSnapshots(single), single) {
		t.Error("MergeSnapshots(s) != s for a single snapshot")
	}
	// Stop flushes the open transaction into the final checkpoint; the
	// reference closes its own at the same event.
	e.Stop()
	ref.Flush()
	feed("restored, second half", syn.Trace.Events[half:]).Stop()
}

func TestDropOldestAccounting(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"), WithQueueSize(4))
	const n = 5000
	for i := 0; i < n; i++ {
		ev := blktrace.Event{Time: int64(i) * 1000, Op: blktrace.OpRead,
			Extent: blktrace.Extent{Block: uint64(i), Len: 1}}
		if err := e.Submit("vol0", ev); err != nil {
			t.Fatal(err)
		}
	}
	// Every submitted event is either processed or counted as dropped.
	ds := waitDrained(t, e, "vol0", n)
	if ds.Monitor.Events+ds.Dropped != n {
		t.Errorf("events %d + dropped %d != submitted %d", ds.Monitor.Events, ds.Dropped, n)
	}
	t.Logf("processed %d, dropped %d", ds.Monitor.Events, ds.Dropped)
	e.Stop()
}

func TestWriteSnapshotLive(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"), WithBackpressure(Block))
	a := blktrace.Extent{Block: 10, Len: 1}
	b := blktrace.Extent{Block: 20, Len: 1}
	for i := 0; i < 8; i++ {
		base := int64(i) * int64(time.Second)
		if err := e.Submit("vol0", blktrace.Event{Time: base, Op: blktrace.OpRead, Extent: a}); err != nil {
			t.Fatal(err)
		}
		if err := e.Submit("vol0", blktrace.Event{Time: base + 1000, Op: blktrace.OpRead, Extent: b}); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, e, "vol0", 16)
	var buf bytes.Buffer
	if err := e.WriteSnapshot("vol0", &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadAnalyzer(&buf)
	if err != nil {
		t.Fatalf("live snapshot not loadable: %v", err)
	}
	if restored.Pairs().Len() == 0 {
		t.Error("restored live snapshot empty")
	}
	e.Stop()
}

func TestMergedRules(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0", "vol1"), WithBackpressure(Block))
	a := blktrace.Extent{Block: 10, Len: 1}
	b := blktrace.Extent{Block: 20, Len: 1}
	for _, id := range []string{"vol0", "vol1"} {
		for i := 0; i < 5; i++ {
			base := int64(i) * int64(time.Second)
			if err := e.Submit(id, blktrace.Event{Time: base, Op: blktrace.OpRead, Extent: a}); err != nil {
				t.Fatal(err)
			}
			if err := e.Submit(id, blktrace.Event{Time: base + 1000, Op: blktrace.OpRead, Extent: b}); err != nil {
				t.Fatal(err)
			}
		}
		waitDrained(t, e, id, 10)
	}
	// Each device saw the pair 4 times (the 5th transaction is still
	// open); merged support is the sum of both devices' counters.
	merged, _, _, err := e.MergedState(5, 0.5, 10, core.WantRules)
	if err != nil {
		t.Fatal(err)
	}
	rules := merged.Rules
	if len(rules) != 2 {
		t.Fatalf("merged rules = %+v, want 2", rules)
	}
	dev, _, err := e.State("vol0", 1, 0.5, 10, core.WantRules)
	if err != nil {
		t.Fatal(err)
	}
	perDev := dev.Rules
	if len(perDev) != 2 {
		t.Fatalf("per-device rules = %+v, want 2", perDev)
	}
	if rules[0].Support != 2*perDev[0].Support {
		t.Errorf("merged support = %d, want %d", rules[0].Support, 2*perDev[0].Support)
	}
	e.Stop()
}

func TestStopSemantics(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"))
	dev, err := e.Device("vol0")
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	e.Stop() // idempotent
	ev := blktrace.Event{Time: 0, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 1, Len: 1}}
	if err := e.Submit("vol0", ev); !errors.Is(err, ErrStopped) {
		t.Errorf("Submit after stop = %v, want ErrStopped", err)
	}
	if err := dev.Submit(ev); !errors.Is(err, ErrStopped) {
		t.Errorf("Device.Submit after stop = %v, want ErrStopped", err)
	}
	if _, err := e.Snapshot("vol0", 1); !errors.Is(err, ErrStopped) {
		t.Errorf("Snapshot after stop = %v, want ErrStopped", err)
	}
	if _, err := e.MergedSnapshot(1); !errors.Is(err, ErrStopped) {
		t.Errorf("MergedSnapshot after stop = %v, want ErrStopped", err)
	}
	if _, err := e.Stats(); !errors.Is(err, ErrStopped) {
		t.Errorf("Stats after stop = %v, want ErrStopped", err)
	}
	if err := e.Register("vol1"); !errors.Is(err, ErrStopped) {
		t.Errorf("Register after stop = %v, want ErrStopped", err)
	}
	if _, err := e.Dropped("vol0"); err != nil {
		t.Errorf("Dropped after stop = %v, want nil", err)
	}
	if got := e.Devices(); len(got) != 1 {
		t.Errorf("Devices after stop = %v", got)
	}
	dev.ObserveLatency(1) // must not panic or block
}

func TestConcurrentStop(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0", "vol1"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
		}()
	}
	wg.Wait()
}

func TestBlockPolicyLosesNothing(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0"), WithQueueSize(2), WithBackpressure(Block))
	const n = 3000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				ev := blktrace.Event{Time: int64(i) * 1000, Op: blktrace.OpRead,
					Extent: blktrace.Extent{Block: uint64(g*1_000_000 + i), Len: 1}}
				if err := e.Submit("vol0", ev); err != nil {
					t.Errorf("Submit: %v", err)
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
