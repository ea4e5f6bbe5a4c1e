package realtime

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
	"daccor/pkg/client"
)

// restartEngine builds a one-device engine over the shared checkpoint
// directory; each call restores whatever the previous generation saved.
func restartEngine(t *testing.T, dir string) *engine.Engine {
	t.Helper()
	store, err := checkpoint.Open(checkpoint.Config{Dir: dir, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 256, PairCapacity: 256}),
		engine.WithCheckpoints(store, 50*time.Millisecond),
		engine.WithDevices("vol0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// serveOn serves the engine's API on addr ("" = any port), retrying the
// bind briefly: re-listening on the port a just-closed server held can
// race its release.
func serveOn(t *testing.T, e *engine.Engine, addr string) (*http.Server, string) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv := &http.Server{Handler: NewEngineHandler(e)}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

// feedPair submits one occurrence of the learned (10, 20) pair at the
// given second-offset; each call also closes the window the previous
// call opened.
func feedPair(t *testing.T, e *engine.Engine, sec int) {
	t.Helper()
	base := int64(sec) * int64(time.Second)
	must(t, e.SubmitBatch("vol0", []blktrace.Event{
		{Time: base, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 10, Len: 1}},
		{Time: base + 1000, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 20, Len: 1}},
	}))
}

// TestClientWatchAcrossServerRestart is the resume property of the
// typed client: an abrupt server stop mid-stream (connections killed,
// engine stopped with a final checkpoint) is invisible to the watch
// consumer. The watcher re-dials with Last-Event-ID until the restarted
// server — same address, state restored from checkpoint — answers, the
// resumed deliveries carry the pre-restart counts forward (no cold
// start), epochs never repeat, and the cursor regresses at most once
// (the restarted engine's epoch counter starts over).
func TestClientWatchAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()

	e1 := restartEngine(t, dir)
	srv1, addr := serveOn(t, e1, "")
	for i := 0; i < 8; i++ {
		feedPair(t, e1, i)
	}

	cli := client.New("http://" + addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := cli.Watch(ctx, "vol0", client.Query{Support: 1, Top: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	recv := func(timeout time.Duration) client.WatchState {
		t.Helper()
		select {
		case st, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch ended early: %v", w.Err())
			}
			return st
		case <-time.After(timeout):
			t.Fatal("timed out waiting for watch delivery")
		}
		return client.WatchState{}
	}
	var states []client.WatchState
	pairCount := func(st client.WatchState) uint32 {
		t.Helper()
		for _, p := range st.Pairs {
			if p.Pair.A.Block == 10 && p.Pair.B.Block == 20 {
				return p.Count
			}
		}
		return 0
	}

	// Pre-restart: wait until the learned pair's closed occurrences are
	// visible, remembering the freshest state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := recv(5 * time.Second)
		states = append(states, st)
		if pairCount(st) >= 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair count stuck at %d before restart", pairCount(st))
		}
	}
	preCount := pairCount(states[len(states)-1])

	// Abrupt restart: kill the connections first so the client sees a
	// dropped stream (not a graceful terminal end), then stop the
	// engine, which flushes the final checkpoint.
	srv1.Close()
	e1.Stop()
	e2 := restartEngine(t, dir)
	defer e2.Stop()
	srv2, _ := serveOn(t, e2, addr)
	defer srv2.Close()

	// Resume: feed fresh occurrences until a post-restart delivery
	// lands. The reconnect window covers the client's capped backoff.
	var resumed client.WatchState
	got := false
	for i := 0; i < 100 && !got; i++ {
		feedPair(t, e2, 100+i)
		select {
		case st, ok := <-w.Events():
			if !ok {
				t.Fatalf("watch ended during restart: %v", w.Err())
			}
			states = append(states, st)
			resumed = st
			got = true
		case <-time.After(200 * time.Millisecond):
		}
	}
	if !got {
		t.Fatal("no delivery after server restart")
	}
	if c := pairCount(resumed); c < preCount {
		t.Errorf("resumed count %d below pre-restart %d: checkpoint not restored", c, preCount)
	}

	// One more advance proves the resumed stream is live, not a replay.
	feedPair(t, e2, 300)
	st := recv(5 * time.Second)
	states = append(states, st)
	if c := pairCount(st); c < pairCount(resumed) {
		t.Errorf("post-resume count went backwards: %d after %d", c, pairCount(resumed))
	}

	// Cursor discipline across the whole run: every delivered epoch is
	// distinct (nothing delivered twice), and the numeric cursor
	// regresses at most once — the restarted engine's counter reset.
	seen := make(map[string]bool)
	resets := 0
	var prev uint64
	for i, s := range states {
		if seen[s.Epoch] {
			t.Errorf("epoch %q delivered twice", s.Epoch)
		}
		seen[s.Epoch] = true
		n, err := strconv.ParseUint(s.Epoch, 10, 64)
		if err != nil {
			t.Fatalf("epoch %q is not numeric: %v", s.Epoch, err)
		}
		if i > 0 && n <= prev {
			resets++
		}
		prev = n
	}
	if resets > 1 {
		t.Errorf("cursor regressed %d times, want at most 1 (the restart)", resets)
	}

	w.Close()
	if err := w.Err(); err != nil {
		t.Errorf("Err after Close = %v, want nil", err)
	}
	if _, ok := <-w.Events(); ok {
		t.Error("events channel still open after Close")
	}
}
