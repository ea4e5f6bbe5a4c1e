package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
)

// The fleet test harness: real engines, the real aggregator behind a
// real HTTP server, and a real sync client — faults are injected at
// the transport (flaky RoundTrippers), the clock (fakeClock), and the
// process boundary (engines restarted from checkpoint directories).

func newTestEngine(t *testing.T, devices ...string) *engine.Engine {
	t.Helper()
	e, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		engine.WithDevices(devices...),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// feed submits n read events over a 16-block universe (blocks offset
// by seed so different feeds produce different correlations) and
// waits until the device has drained them.
func feed(t *testing.T, e *engine.Engine, dev string, n int, seed uint64) {
	t.Helper()
	feedKeys(t, e, dev, n, seed, 16)
}

// feedKeys is feed with an explicit key-universe size: a wide universe
// builds a large synopsis, a narrow one touches only a few entries —
// the content-incremental workload delta sync exists for.
func feedKeys(t *testing.T, e *engine.Engine, dev string, n int, seed uint64, keys int) {
	t.Helper()
	var before uint64
	if ds, err := e.DeviceStatsFor(dev); err == nil {
		before = ds.Monitor.Events + ds.Dropped
	}
	for i := 0; i < n; i++ {
		ev := blktrace.Event{
			Time:   int64(i+1) * int64(time.Millisecond),
			Op:     blktrace.OpRead,
			Extent: blktrace.Extent{Block: seed*65536 + uint64(1+i%keys)*8, Len: 1},
		}
		if err := e.Submit(dev, ev); err != nil {
			t.Fatalf("submit %s event %d: %v", dev, i, err)
		}
	}
	waitDrained(t, e, dev, before+uint64(n))
}

// feedEpochs submits n read events one at a time, each once the
// device's epoch has taken in the one before, so that the device ends n
// epochs above the one it started at. Events come in pairs 10µs apart,
// 20ms from the next pair, so each pair is a transaction that the next
// one closes.
func feedEpochs(t *testing.T, e *engine.Engine, dev string, n int, seed uint64) {
	t.Helper()
	start, err := e.Epoch(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ev := blktrace.Event{
			Time:   int64(i/2)*int64(20*time.Millisecond) + int64(i%2)*10_000,
			Op:     blktrace.OpRead,
			Extent: blktrace.Extent{Block: seed*65536 + uint64(1+i)*8, Len: 1},
		}
		before, err := e.Epoch(dev)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(dev, ev); err != nil {
			t.Fatalf("submit %s event %d: %v", dev, i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err = e.WaitEpoch(ctx, dev, before)
		cancel()
		if err != nil {
			t.Fatalf("%s: epoch after event %d: %v", dev, i, err)
		}
	}
	if ep, err := e.Epoch(dev); err != nil || ep != start+uint64(n) {
		t.Fatalf("%s: epoch %d (%v) after %d single-event batches from %d", dev, ep, err, n, start)
	}
}

func waitDrained(t *testing.T, e *engine.Engine, dev string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds, err := e.DeviceStatsFor(dev)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Monitor.Events+ds.Dropped >= want && ds.Lag == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("device %s drained %d+%d of %d before deadline", dev, ds.Monitor.Events, ds.Dropped, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetMerge computes the ground truth the aggregator must converge
// to: core.MergeSnapshots over every named device of every engine —
// exactly what a single process holding all devices would serve.
func fleetMerge(t *testing.T, engines ...*engine.Engine) core.Snapshot {
	t.Helper()
	var snaps []core.Snapshot
	for _, e := range engines {
		for _, dev := range e.Devices() {
			s, err := e.Snapshot(dev, 0)
			if err != nil {
				t.Fatalf("snapshot %s: %v", dev, err)
			}
			snaps = append(snaps, s)
		}
	}
	return core.MergeSnapshots(snaps...)
}

// requireConverged asserts the aggregator's merged mirror is
// DeepEqual to the single-process merge of the given engines.
func requireConverged(t *testing.T, a *Aggregator, engines ...*engine.Engine) {
	t.Helper()
	want := fleetMerge(t, engines...)
	got := a.MergedSnapshot(0)
	if !reflect.DeepEqual(got, want) {
		for i := range want.Items {
			if i >= len(got.Items) || got.Items[i] != want.Items[i] {
				t.Logf("first item mismatch at %d: got %+v want %+v", i, got.Items[i], want.Items[i])
				break
			}
		}
		for i := range want.Pairs {
			if i >= len(got.Pairs) || got.Pairs[i] != want.Pairs[i] {
				t.Logf("first pair mismatch at %d: got %+v want %+v", i, got.Pairs[i], want.Pairs[i])
				break
			}
		}
		t.Fatalf("aggregator diverged from single-process merge:\ngot  %d pairs / %d items\nwant %d pairs / %d items",
			len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
	}
}

// fakeClock is a concurrency-safe manual clock for lease/staleness
// tests. Install with newAggregatorAt before the aggregator serves.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newAggregatorAt builds an aggregator on a fake clock.
func newAggregatorAt(cfg Config, clk *fakeClock) *Aggregator {
	a := NewAggregator(cfg)
	a.now = clk.Now
	return a
}

// newLocalServer serves h on a loopback listener and returns its URL.
func newLocalServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// testFleet wires one aggregator (fake clock, short lease) behind an
// httptest server with one sync client per engine.
type testFleet struct {
	agg     *Aggregator
	clk     *fakeClock
	srv     *httptest.Server
	clients []*SyncClient
}

func newTestFleet(t *testing.T, cfg Config, engines ...*engine.Engine) *testFleet {
	t.Helper()
	clk := newFakeClock()
	agg := newAggregatorAt(cfg, clk)
	srv := httptest.NewServer(NewHandler(agg))
	t.Cleanup(srv.Close)
	tf := &testFleet{agg: agg, clk: clk, srv: srv}
	for i, e := range engines {
		c, err := NewSyncClient(ClientConfig{
			Aggregator:  srv.URL,
			Collector:   "c" + string(rune('0'+i)),
			Engine:      e,
			MaxAttempts: 3,
			BackoffBase: time.Millisecond,
			BackoffCap:  5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		tf.clients = append(tf.clients, c)
	}
	return tf
}

// syncAll runs one round on every client, failing the test on error.
func (tf *testFleet) syncAll(t *testing.T) []RoundReport {
	t.Helper()
	reps := make([]RoundReport, len(tf.clients))
	for i, c := range tf.clients {
		rep, err := c.SyncNow(context.Background())
		if err != nil {
			t.Fatalf("client %d sync: %v", i, err)
		}
		reps[i] = rep
	}
	return reps
}
