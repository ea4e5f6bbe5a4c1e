package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
)

// TestStopTimeoutForcesDrain covers the forced path of the -drain-timeout
// shutdown: a worker slowed to ~5ms/event faces a backlog worth seconds
// of drain, StopTimeout(100ms) must return far sooner, report that it
// forced, account the abandoned events as dropped — and still write the
// final checkpoint, because an operator who bounded the drain did not
// agree to lose the counts already analyzed.
func TestStopTimeoutForcesDrain(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	slow := func(device string, ev blktrace.Event) { time.Sleep(5 * time.Millisecond) }
	e := mustEngine(t,
		WithDevices("dev0"),
		WithQueueSize(4096),
		WithCheckpoints(store, time.Hour),
		WithProcessHook(slow),
	)
	// ~4s of work at 5ms/event — far beyond the 100ms budget.
	feedN(t, e, "dev0", 800, 0)

	start := time.Now()
	forced := e.StopTimeout(100 * time.Millisecond)
	elapsed := time.Since(start)

	if !forced {
		t.Fatal("StopTimeout returned forced=false with a multi-second backlog")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("forced stop took %v; the deadline did not bound the drain", elapsed)
	}
	if dropped := metricValue(t, e, MetricDropped, "dev0"); dropped == 0 {
		t.Fatal("forced stop discarded the backlog but dropped counter is 0")
	}
	if _, ok := store.Latest("dev0"); !ok {
		t.Fatal("no final checkpoint after forced stop")
	}
}

// TestStopTimeoutDrainsWithinDeadline covers the happy path: a small
// backlog drains well inside the deadline, nothing is dropped, and the
// final checkpoint is written as on a plain Stop.
func TestStopTimeoutDrainsWithinDeadline(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t,
		WithDevices("dev0"),
		WithQueueSize(4096),
		WithCheckpoints(store, time.Hour),
	)
	feedN(t, e, "dev0", 200, 0)

	if forced := e.StopTimeout(10 * time.Second); forced {
		t.Fatal("StopTimeout forced a discard on a trivially drainable backlog")
	}
	if dropped := metricValue(t, e, MetricDropped, "dev0"); dropped != 0 {
		t.Fatalf("clean drain dropped %v events", dropped)
	}
	if _, ok := store.Latest("dev0"); !ok {
		t.Fatal("no final checkpoint after clean stop")
	}
}

// TestStopTimeoutDiscardsBehindParkedRouter forces the ordering
// TestStopTimeoutForcesDrain can only race: the router is parked inside
// the process hook — mid-drain, having sampled stopping=false at the
// top of its loop — while StopTimeout runs to its deadline and forces.
// Once released, the router must analyze nothing beyond the event it
// already had in hand: every other queued or reorder-buffered event is
// counted as dropped, and the final checkpoint is still written.
func TestStopTimeoutDiscardsBehindParkedRouter(t *testing.T) {
	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var analyzed atomic.Int64
	parked := make(chan struct{})
	release := make(chan struct{})
	hook := func(device string, ev blktrace.Event) {
		if analyzed.Add(1) == 1 {
			close(parked)
			<-release
		}
	}
	e := mustEngine(t,
		WithDevices("dev0"),
		WithQueueSize(4096),
		WithCheckpoints(store, time.Hour),
		WithProcessHook(hook),
	)
	const n = 800
	feedN(t, e, "dev0", n, 0)
	<-parked

	s, err := e.shard("dev0")
	if err != nil {
		t.Fatal(err)
	}
	forced := make(chan bool, 1)
	go func() { forced <- e.StopTimeout(time.Millisecond) }()
	for deadline := time.Now().Add(10 * time.Second); !s.discard.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("StopTimeout never forced the parked device")
		}
		runtime.Gosched()
	}
	close(release)

	if !<-forced {
		t.Fatal("StopTimeout returned forced=false")
	}
	if got := analyzed.Load(); got != 1 {
		t.Fatalf("router analyzed %d events after the forced stop, want only the 1 in hand", got)
	}
	if dropped := metricValue(t, e, MetricDropped, "dev0"); dropped != n-1 {
		t.Fatalf("dropped = %v, want %d (everything but the in-hand event)", dropped, n-1)
	}
	if _, ok := store.Latest("dev0"); !ok {
		t.Fatal("no final checkpoint after forced stop")
	}
}

// TestStatsAfterSubmitIsDrained: one DeviceStats read taken after the
// producer's submits returned reports every one of them analysed and
// no lag, with no polling. The router answers a stats query only after
// it has drained the ring and flushed the reorder buffer, and the
// producer-side lag is read after that reply, so the two halves of one
// DeviceStats agree.
func TestStatsAfterSubmitIsDrained(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", parts), func(t *testing.T) {
			e := mustEngine(t, WithDevices("dev0"), WithPartitions(parts))
			defer e.Stop()
			rng := rand.New(rand.NewSource(int64(parts)))
			submitted := 0
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(128)
				feedN(t, e, "dev0", n, submitted)
				submitted += n
				ds, err := e.DeviceStatsFor("dev0")
				if err != nil {
					t.Fatal(err)
				}
				if ds.Monitor.Events != uint64(submitted) || ds.Lag != 0 {
					t.Fatalf("iteration %d: %d of %d events analysed, lag %d; want all, lag 0",
						i, ds.Monitor.Events, submitted, ds.Lag)
				}
			}
		})
	}
}
