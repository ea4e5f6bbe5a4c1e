package engine

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
)

// The fault-injection harness: WithProcessHook plants deterministic
// panics on the worker's event path (exactly where a real synopsis bug
// would fire), and checkpoint.Config.FaultHook plants write failures
// between temp-file sync and rename (exactly where a full disk or
// crash would bite). Everything else is the production code path.

// fastSupervisor keeps restart churn fast enough for tests while
// preserving the real backoff/budget/probation machinery.
func fastSupervisor(maxRestarts int, probation uint64) SupervisorConfig {
	return SupervisorConfig{
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		MaxRestarts: maxRestarts,
		Probation:   probation,
	}
}

func readEvent(block uint64, i int) blktrace.Event {
	return blktrace.Event{
		Time:   int64(i+1) * int64(time.Millisecond),
		Op:     blktrace.OpRead,
		Extent: blktrace.Extent{Block: block, Len: 1},
	}
}

// feedN submits n benign events (blocks 1..16) to the device.
func feedN(t *testing.T, e *Engine, id string, n, timeBase int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.Submit(id, readEvent(uint64(1+i%16), timeBase+i)); err != nil {
			t.Fatalf("submit %s event %d: %v", id, i, err)
		}
	}
}

// waitHealth polls Engine.Health until the device satisfies pred.
func waitHealth(t *testing.T, e *Engine, id string, pred func(DeviceHealthStatus) bool, what string) DeviceHealthStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, h := range e.Health() {
			if h.Device == id && pred(h) {
				return h
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("device %s never reached %q; health now: %+v", id, what, e.Health())
		}
		time.Sleep(time.Millisecond)
	}
}

// metricValue scrapes the registry and returns the sample for
// name{device="dev"}, or 0 if absent.
func metricValue(t *testing.T, e *Engine, name, dev string) float64 {
	t.Helper()
	var b bytes.Buffer
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("%s{device=%q} ", name, dev)
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad sample %q: %v", name, rest, err)
			}
			return v
		}
	}
	return 0
}

// TestFaultPanicRecoveryFromCheckpoint is the headline fault-injection
// scenario: a device worker panics mid-stream, the supervisor restores
// the freshest checkpoint and restarts it, the device serves queries
// again, loses at most the events since that checkpoint, and the
// sibling device never notices.
func TestFaultPanicRecoveryFromCheckpoint(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const poison = 999
	e := mustEngine(t,
		WithDevices("dev0", "dev1"),
		WithCheckpoints(store, 2*time.Millisecond),
		WithSupervisor(fastSupervisor(5, 8)),
		WithProcessHook(func(device string, ev blktrace.Event) {
			if device == "dev0" && ev.Extent.Block == poison {
				panic("injected fault")
			}
		}),
	)
	defer e.Stop()

	feedN(t, e, "dev0", 60, 0)
	feedN(t, e, "dev1", 60, 0)
	waitDrained(t, e, "dev0", 60)
	st1 := waitDrained(t, e, "dev1", 60)

	ds0, err := e.DeviceStatsFor("dev0")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for a checkpoint generation that provably contains every
	// event fed so far. A generation says when it was committed, not when
	// its state was captured: the first one past the drain may be a save
	// that was already in flight, holding an older capture. The device's
	// saves run one after another, so the second one's capture was taken
	// after the first committed — after the drain.
	atDrain := ds0.Health.CheckpointSeq
	waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.CheckpointSeq >= atDrain+2
	}, "second post-drain checkpoint")

	// Poison the worker and wait for the supervisor to bring it back.
	if err := e.Submit("dev0", readEvent(poison, 60)); err != nil {
		t.Fatalf("poison submit: %v", err)
	}
	h := waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.Panics >= 1 && h.Restarts >= 1 && h.State != Failed
	}, "restart after panic")
	if h.LastRestart.IsZero() {
		t.Error("LastRestart still zero after a restart")
	}

	// The restored analyzer must carry the checkpointed state: at least
	// as many transactions as the pre-panic drain had accumulated (the
	// only admissible loss is the poison batch itself — well under one
	// checkpoint interval).
	after, err := e.DeviceStatsFor("dev0")
	if err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
	if after.Analyzer.Transactions < ds0.Analyzer.Transactions {
		t.Errorf("restored analyzer has %d transactions, want >= %d (checkpoint lost more than one interval)",
			after.Analyzer.Transactions, ds0.Analyzer.Transactions)
	}

	// The device serves queries again.
	if _, err := e.Snapshot("dev0", 1); err != nil {
		t.Errorf("snapshot after recovery: %v", err)
	}

	// The sibling device never wobbled.
	h1 := waitHealth(t, e, "dev1", func(DeviceHealthStatus) bool { return true }, "")
	if h1.State != Healthy || h1.Panics != 0 || h1.Restarts != 0 {
		t.Errorf("dev1 disturbed by dev0's fault: %+v", h1)
	}
	if got, _ := e.DeviceStatsFor("dev1"); got.Monitor.Events != st1.Monitor.Events {
		t.Errorf("dev1 lost events during dev0's fault: %d -> %d", st1.Monitor.Events, got.Monitor.Events)
	}

	// Probation: enough clean events return the device to Healthy and
	// reset its restart budget.
	feedN(t, e, "dev0", 20, 100)
	h = waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.State == Healthy && h.ConsecutiveRestarts == 0
	}, "healthy after probation")

	// The fault trail is on the metrics surface.
	if v := metricValue(t, e, MetricPanics, "dev0"); v < 1 {
		t.Errorf("%s = %v, want >= 1", MetricPanics, v)
	}
	if v := metricValue(t, e, MetricRestarts, "dev0"); v < 1 {
		t.Errorf("%s = %v, want >= 1", MetricRestarts, v)
	}
	if v := metricValue(t, e, MetricHealthState, "dev0"); v != 0 {
		t.Errorf("%s = %v, want 0 (healthy)", MetricHealthState, v)
	}
}

// TestFaultRestartBudgetExhaustion drives a device that panics on every
// event until its restart budget burns out: it must land in Failed,
// fast-fail ingest and queries with ErrDeviceUnavailable (never hang),
// leave its sibling untouched, and still let Stop complete cleanly.
func TestFaultRestartBudgetExhaustion(t *testing.T) {
	e := mustEngine(t,
		WithDevices("dev0", "dev1"),
		WithSupervisor(fastSupervisor(2, 1<<20)),
		WithProcessHook(func(device string, ev blktrace.Event) {
			if device == "dev0" {
				panic("always fails")
			}
		}),
	)

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
	h := waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.State == Failed
	}, "failed")
	if h.Restarts == 0 || h.Panics == 0 {
		t.Errorf("failed device reports no restarts/panics: %+v", h)
	}

	// Queries fast-fail rather than hanging on the dead worker.
	qdone := make(chan error, 1)
	go func() {
		_, err := e.Snapshot("dev0", 1)
		qdone <- err
	}()
	select {
	case err := <-qdone:
		if !errors.Is(err, ErrDeviceUnavailable) {
			t.Errorf("snapshot on failed device = %v, want ErrDeviceUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot on failed device hung")
	}

	// Engine-wide stats still work; the failed entry keeps health and
	// producer-side counters.
	st, err := e.Stats()
	if err != nil {
		t.Fatalf("stats with failed device: %v", err)
	}
	for _, ds := range st.Devices {
		if ds.Device == "dev0" && ds.Health.State != Failed {
			t.Errorf("stats health for dev0 = %v, want Failed", ds.Health.State)
		}
	}
	if v := metricValue(t, e, MetricHealthState, "dev0"); v != 2 {
		t.Errorf("%s = %v, want 2 (failed)", MetricHealthState, v)
	}

	// The sibling keeps serving.
	feedN(t, e, "dev1", 10, 0)
	waitDrained(t, e, "dev1", 10)
	if _, err := e.Snapshot("dev1", 1); err != nil {
		t.Errorf("sibling snapshot: %v", err)
	}

	// Stop must complete even with a failed (parked) device.
	done := make(chan struct{})
	go func() { e.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung with a failed device")
	}
	if err := e.Submit("dev0", readEvent(1, 0)); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop submit to failed device = %v, want ErrStopped", err)
	}
}

// TestFaultCheckpointWriteFailure injects a persistent checkpoint-write
// fault: saves fail (and are counted), but the device itself stays
// healthy — losing durability must not take down live serving — and
// shutdown proceeds despite the failing final flush.
func TestFaultCheckpointWriteFailure(t *testing.T) {
	boom := errors.New("injected disk fault")
	store, err := checkpoint.Open(checkpoint.Config{
		Dir: t.TempDir(),
		FaultHook: func(device string, seq uint64) error {
			return boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t,
		WithDevices("dev0"),
		WithCheckpoints(store, time.Millisecond),
	)
	feedN(t, e, "dev0", 20, 0)
	waitDrained(t, e, "dev0", 20)

	deadline := time.Now().Add(10 * time.Second)
	for metricValue(t, e, MetricCheckpointErrors, "dev0") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint errors never counted")
		}
		time.Sleep(time.Millisecond)
	}
	h := waitHealth(t, e, "dev0", func(DeviceHealthStatus) bool { return true }, "")
	if h.State != Healthy {
		t.Errorf("checkpoint write failures degraded the device: %v", h.State)
	}
	if h.CheckpointSeq != 0 {
		t.Errorf("CheckpointSeq = %d despite every save failing", h.CheckpointSeq)
	}

	done := make(chan struct{})
	go func() { e.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung on failing final checkpoint")
	}
	if _, _, err := store.Restore("dev0"); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Errorf("restore = %v, want ErrNoCheckpoint (no save ever committed)", err)
	}
}

// storeListing renders every file under the store directory with its
// size and modification time, the directories' own times included — any
// create, rename, remove or write under it changes the rendering.
func storeListing(t *testing.T, root string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %d %s\n", path, info.Size(), info.ModTime().Format(time.RFC3339Nano))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStopWaitsForParkedCheckpointSave forces the ordering that let a
// periodic save outlive Stop: the checkpoint loop's save is parked on the
// FaultHook between temp close and rename, the device ingests on, and
// Stop is called. Stop must neither return nor bring its final flush to
// its own commit point while that save is in flight; once it has
// returned, the newest generation is the final state and nothing touches
// the store directory again.
func TestStopWaitsForParkedCheckpointSave(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	second := make(chan struct{}, 1)
	var calls atomic.Int32
	store, err := checkpoint.Open(checkpoint.Config{
		Dir: t.TempDir(),
		FaultHook: func(device string, seq uint64) error {
			if calls.Add(1) == 1 {
				close(parked)
				<-release
				return nil
			}
			select {
			case <-release:
			default:
				second <- struct{}{} // a save at its commit point beside the parked one
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t,
		WithDevices("dev0"),
		WithBackpressure(Block),
		WithCheckpoints(store, time.Millisecond),
	)
	// The oracle for the final state: the library pipeline fed the same
	// events and flushed, as Stop flushes.
	ref := testPipeline(t)
	for _, base := range []int{0, 40} { // the two feedN calls below
		for i := 0; i < 40; i++ {
			if err := ref.HandleIssue(readEvent(uint64(1+i%16), base+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ref.Flush()

	feedN(t, e, "dev0", 40, 0)
	waitDrained(t, e, "dev0", 40)
	<-parked
	// The parked save holds a capture of at most the first 40 events and
	// the device's lowest sequence; everything below happens after it.
	feedN(t, e, "dev0", 40, 40)
	last := waitDrained(t, e, "dev0", 80)

	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	// No event can say "Stop is still waiting": give a Stop that does not
	// wait ample time to show itself.
	select {
	case <-stopped:
		t.Fatal("Stop returned while a periodic checkpoint save was still in flight")
	case <-second:
		t.Fatal("the final flush reached its commit point beside an in-flight periodic save")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-stopped
	select {
	case <-second:
		t.Error("a save reached its commit point while the periodic save was parked")
	default:
	}

	before := storeListing(t, store.Dir())
	restored, gen, err := store.Restore("dev0")
	if err != nil {
		t.Fatal(err)
	}
	if newest, ok := store.Latest("dev0"); !ok || newest.Seq != gen.Seq || gen.Seq < 2 {
		t.Errorf("restored generation %d, newest on disk %d (ok=%v); want the final flush, after the parked save's",
			gen.Seq, newest.Seq, ok)
	}
	// The stop flush closes the one transaction the last read saw open.
	if got, want := restored.Stats().Transactions, last.Analyzer.Transactions+1; got != want {
		t.Errorf("newest generation holds %d transactions, want %d (last pre-stop read + the flushed one)", got, want)
	}
	if restored.Stats() != ref.Analyzer().Stats() {
		t.Errorf("newest generation stats = %+v, want the final state's %+v", restored.Stats(), ref.Analyzer().Stats())
	}
	if !reflect.DeepEqual(restored.Snapshot(0), ref.Snapshot(0)) {
		t.Error("newest generation does not restore to the final state")
	}
	if after := storeListing(t, store.Dir()); after != before {
		t.Errorf("store directory changed after Stop returned:\n%s\nthen\n%s", before, after)
	}
}

// TestFaultQueryDuringPanicIsAnswered pins the no-hung-askers
// guarantee: a query enqueued while the worker is dying is either
// requeued and answered by the restarted worker or failed with a typed
// error — never abandoned. At P=2 the restarted run answers the
// requeued query after waiting for its partition workers (quiesce).
func TestFaultQueryDuringPanicIsAnswered(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", parts), func(t *testing.T) {
			testFaultQueryDuringPanicIsAnswered(t, parts)
		})
	}
}

func testFaultQueryDuringPanicIsAnswered(t *testing.T, parts int) {
	const poison = 999
	entered := make(chan struct{})
	release := make(chan struct{})
	e := mustEngine(t,
		WithDevices("dev0"),
		WithPartitions(parts),
		WithSupervisor(fastSupervisor(5, 4)),
		WithProcessHook(func(device string, ev blktrace.Event) {
			switch ev.Extent.Block {
			case 1:
				close(entered)
				<-release
			case poison:
				panic("injected fault")
			}
		}),
	)
	defer e.Stop()

	// Park the worker mid-batch, then line up a query and the poison
	// event behind it: the next worker round claims the query and dies
	// on the poison before answering, exercising the requeue path.
	if err := e.Submit("dev0", readEvent(1, 0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	qdone := make(chan error, 1)
	go func() {
		_, err := e.Snapshot("dev0", 1)
		qdone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the query reach the queue
	if err := e.Submit("dev0", readEvent(poison, 1)); err != nil {
		t.Fatal(err)
	}
	close(release)

	select {
	case err := <-qdone:
		if err != nil && !errors.Is(err, ErrDeviceUnavailable) {
			t.Errorf("query across panic = %v, want nil or ErrDeviceUnavailable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query enqueued across a worker panic was never answered")
	}
	waitHealth(t, e, "dev0", func(h DeviceHealthStatus) bool {
		return h.Restarts >= 1 && h.State != Failed
	}, "recovered")
}

func TestSupervisorConfigValidateAndBackoff(t *testing.T) {
	if err := (SupervisorConfig{BackoffBase: -1}).Validate(); err == nil {
		t.Error("negative BackoffBase validated")
	}
	if err := (SupervisorConfig{MaxRestarts: -1}).Validate(); err == nil {
		t.Error("negative MaxRestarts validated")
	}
	c := SupervisorConfig{}.withDefaults()
	if c.BackoffBase != DefaultBackoffBase || c.BackoffCap != DefaultBackoffCap ||
		c.MaxRestarts != DefaultMaxRestarts || c.Probation != DefaultProbation {
		t.Errorf("withDefaults = %+v", c)
	}
	for attempt := 1; attempt <= 20; attempt++ {
		d := c.BackoffDelay(attempt)
		if d < 0 || d > c.BackoffCap+c.BackoffCap/2 {
			t.Errorf("BackoffDelay(%d) = %v, outside [0, 1.5*cap]", attempt, d)
		}
	}
	if got := c.BackoffDelay(1); got > DefaultBackoffBase+DefaultBackoffBase/2 {
		t.Errorf("first backoff %v exceeds 1.5*base", got)
	}
}

func TestHealthStateString(t *testing.T) {
	cases := map[HealthState]string{
		Healthy: "healthy", Degraded: "degraded", Failed: "failed", HealthState(9): "HealthState(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
