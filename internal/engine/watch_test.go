package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

func watchEngine(t *testing.T, devices ...string) *Engine {
	t.Helper()
	e, err := New(
		WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
		WithAnalyzer(core.Config{ItemCapacity: 1024, PairCapacity: 1024}),
		WithBackpressure(Block),
		WithDevices(devices...),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// submitPair feeds one correlated pair far enough apart in event time
// to close the transaction window, guaranteeing at least one batch is
// processed and the epoch advances.
func submitPair(t *testing.T, e *Engine, id string, base int64) {
	t.Helper()
	a := blktrace.Extent{Block: 10, Len: 1}
	b := blktrace.Extent{Block: 20, Len: 1}
	if err := e.SubmitBatch(id, []blktrace.Event{
		{Time: base, Op: blktrace.OpRead, Extent: a},
		{Time: base + 1000, Op: blktrace.OpRead, Extent: b},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitEpochImmediateWhenBehind(t *testing.T) {
	e := watchEngine(t, "vol0")
	defer e.Stop()
	submitPair(t, e, "vol0", 0)
	// Wait for the epoch to move off zero.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ep, err := e.WaitEpoch(ctx, "vol0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ep == 0 {
		t.Fatal("epoch still 0 after wait")
	}
	// A stale cursor returns without blocking.
	fast, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	again, err := e.WaitEpoch(fast, "vol0", ep-1)
	if err != nil {
		t.Fatalf("stale-cursor wait should not block: %v", err)
	}
	if again < ep {
		t.Errorf("epoch went backwards: %d < %d", again, ep)
	}
}

func TestWaitEpochBlocksUntilAdvance(t *testing.T) {
	e := watchEngine(t, "vol0")
	defer e.Stop()
	ep, err := e.Epoch("vol0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan uint64, 1)
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		next, err := e.WaitEpoch(ctx, "vol0", ep)
		if err != nil {
			errc <- err
			return
		}
		got <- next
	}()
	// Give the waiter time to actually block, then ingest.
	time.Sleep(20 * time.Millisecond)
	submitPair(t, e, "vol0", 0)
	select {
	case next := <-got:
		if next <= ep {
			t.Errorf("woke at epoch %d, want > %d", next, ep)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after ingest")
	}
}

func TestWaitEpochContextCancel(t *testing.T) {
	e := watchEngine(t, "vol0")
	defer e.Stop()
	ep, _ := e.Epoch("vol0")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := e.WaitEpoch(ctx, "vol0", ep)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

// TestWaitEpochTerminalOnStop pins the satellite fix: epoch waiters
// are woken with a terminal error on Stop instead of hanging.
func TestWaitEpochTerminalOnStop(t *testing.T) {
	e := watchEngine(t, "vol0")
	ep, _ := e.Epoch("vol0")
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := e.WaitEpoch(ctx, "vol0", ep)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	e.Stop()
	select {
	case err := <-errc:
		// Stop flushes the open transaction, which may advance the
		// epoch and wake the waiter successfully before the terminal
		// signal; both are correct, hanging is not.
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Errorf("err = %v, want nil (flush advance) or ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung across Stop")
	}
	// After Stop, a waiter holding the current (final) cursor is
	// immediately terminal — the epoch can never advance past it. (A
	// stale cursor still returns the final epoch first, so the last
	// flushed state remains deliverable.)
	final, err := e.WaitEpoch(context.Background(), "vol0", ^uint64(0))
	if err != nil {
		t.Fatalf("stale-cursor post-stop wait err = %v, want final epoch", err)
	}
	if _, err := e.WaitEpoch(context.Background(), "vol0", final); !errors.Is(err, ErrStopped) {
		t.Errorf("current-cursor post-stop wait err = %v, want ErrStopped", err)
	}
}

func TestWaitEpochTerminalOnUnregister(t *testing.T) {
	e := watchEngine(t, "vol0", "vol1")
	defer e.Stop()
	ep, _ := e.Epoch("vol0")
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := e.WaitEpoch(ctx, "vol0", ep)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := e.Unregister("vol0"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Errorf("err = %v, want nil (flush advance) or ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung across Unregister")
	}
	// The device is gone from every surface.
	if _, err := e.Epoch("vol0"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("Epoch after unregister = %v, want ErrUnknownDevice", err)
	}
	if got := e.Devices(); len(got) != 1 || got[0] != "vol1" {
		t.Errorf("Devices after unregister = %v, want [vol1]", got)
	}
	// The survivor still works.
	submitPair(t, e, "vol1", 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := e.WaitEpoch(ctx, "vol1", 0); err != nil {
		t.Errorf("surviving device wait: %v", err)
	}
}

func TestUnregisterErrors(t *testing.T) {
	e := watchEngine(t, "vol0")
	if err := e.Unregister("nope"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("unknown unregister = %v", err)
	}
	e.Stop()
	if err := e.Unregister("vol0"); !errors.Is(err, ErrStopped) {
		t.Errorf("post-stop unregister = %v", err)
	}
}

// TestWaitMergedEpoch covers the fleet-level wait: it must wake both
// on any device's epoch advance and on fleet membership change.
func TestWaitMergedEpoch(t *testing.T) {
	e := watchEngine(t, "vol0", "vol1")
	defer e.Stop()
	sum, n := e.MergedEpoch()
	if n != 2 {
		t.Fatalf("devices = %d, want 2", n)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err := e.WaitMergedEpoch(ctx, sum, n)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	submitPair(t, e, "vol1", 0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("merged waiter never woke on device ingest")
	}

	// Membership change (unregister) also wakes a merged waiter.
	sum, n = e.MergedEpoch()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _, err := e.WaitMergedEpoch(ctx, sum, n)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := e.Unregister("vol0"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("merged waiter never woke on unregister")
	}
}

// An epoch advance nobody waits for allocates nothing: the notifier
// remakes its channel only after a waiter has taken the current one.
// Once a waiter has, the next wake still reaches it.
func TestEpochNotifierWakeZeroAllocSteadyState(t *testing.T) {
	n := NewEpochNotifier()
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			n.Wake(nil)
		}
	}); avg > 0 {
		t.Errorf("1000 wakes with no waiter allocate %.0f times, want 0", avg)
	}
	var cursor atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- n.Wait(context.Background(), func() bool { return cursor.Load() != 0 })
	}()
	for taken := false; !taken; {
		time.Sleep(time.Millisecond)
		n.mu.Lock()
		taken = n.taken
		n.mu.Unlock()
	}
	cursor.Add(1)
	n.Wake(nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a wake after the waiter took the channel did not reach it")
	}
}
