package realtime

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"daccor/internal/api"
	"daccor/internal/blktrace"
	"daccor/internal/engine"
	"daccor/pkg/client"
)

// servedCollector starts a one-device engine with a learned pair and
// serves the v1 API over httptest. These tests consume it through the
// typed pkg/client, so the client's envelope handling, error mapping,
// and ETag cache are exercised against the real handler.
func servedCollector(t *testing.T) (*engine.Engine, *client.Client) {
	t.Helper()
	e := startOne(t)
	a := blktrace.Extent{Block: 10, Len: 1}
	b := blktrace.Extent{Block: 20, Len: 1}
	for i := 0; i < 8; i++ {
		base := int64(i) * int64(time.Second)
		must(t, e.Submit(deviceID, blktrace.Event{Time: base, Op: blktrace.OpRead, Extent: a}))
		must(t, e.Submit(deviceID, blktrace.Event{Time: base + 1000, Op: blktrace.OpRead, Extent: b}))
	}
	waitEvents(t, e, 16)
	srv := httptest.NewServer(NewEngineHandler(e))
	t.Cleanup(srv.Close)
	return e, client.New(srv.URL)
}

func TestClientStats(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	st, err := cli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Devices) != 1 || st.Devices[0].Monitor.Events != 16 {
		t.Fatalf("stats = %+v, want one device with 16 events", st)
	}
	if st.Totals.Monitor.Events != 16 {
		t.Errorf("total events = %d, want 16", st.Totals.Monitor.Events)
	}
}

func TestClientSnapshot(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	snap, err := cli.FleetSnapshot(context.Background(), client.Query{Support: 3, Top: 10})
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalPairs != 1 || len(snap.Pairs) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	p := snap.Pairs[0]
	if p.Pair.A.Block != 10 || p.Pair.B.Block != 20 {
		t.Errorf("pair = %+v", p)
	}
	if p.Count < 7 {
		t.Errorf("count = %d, want >= 7", p.Count)
	}
}

func TestClientRules(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	rs, err := cli.FleetRules(context.Background(), client.Query{Support: 3, Confidence: 0.9, Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 2 {
		t.Fatalf("rules = %+v", rs.Rules)
	}
	for _, r := range rs.Rules {
		if r.Confidence < 0.9 {
			t.Errorf("rule below confidence filter: %+v", r)
		}
	}
}

// TestClientETagRevalidation checks the client's conditional-GET
// cache: a repeated identical query is answered 304 by the server and
// served from the client's cache, and still decodes correctly.
func TestClientETagRevalidation(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	q := client.Query{Support: 3, Top: 10}
	first, err := cli.FleetSnapshot(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cli.FleetSnapshot(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if cli.Revalidations() != 1 {
		t.Errorf("revalidations = %d, want 1", cli.Revalidations())
	}
	if len(again.Pairs) != len(first.Pairs) || again.TotalPairs != first.TotalPairs {
		t.Errorf("cached decode mismatch: %+v vs %+v", again, first)
	}
}

// TestClientTypedErrors checks the client surfaces the API's
// machine-readable codes as *APIError values.
func TestClientTypedErrors(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	_, err := cli.DeviceSnapshot(context.Background(), "nope", client.Query{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != api.ErrCodeUnknownDevice {
		t.Errorf("unknown device error = %v, want 404 %s", err, api.ErrCodeUnknownDevice)
	}
	// Out-of-range confidence travels to the server and comes back as
	// a typed bad_request.
	_, err = cli.FleetRules(context.Background(), client.Query{Confidence: 2})
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != api.ErrCodeBadRequest {
		t.Errorf("bad param error = %v, want 400 %s", err, api.ErrCodeBadRequest)
	}
}

func TestClientSubmitEvents(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	n, err := cli.SubmitEvents(context.Background(), "device0", []blktrace.Event{
		{Time: 100 * int64(time.Second), Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 30, Len: 1}},
		{Time: 100*int64(time.Second) + 500, Op: blktrace.OpWrite, Extent: blktrace.Extent{Block: 40, Len: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("accepted = %d, want 2", n)
	}
}

func TestClientHealthReady(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	h, err := cli.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Devices) != 1 {
		t.Errorf("health = %+v", h)
	}
	ready, err := cli.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ready {
		t.Error("ready = false, want true")
	}
}

// TestClientWatch drives the typed client's SSE watcher against the
// live server: the initial state arrives as a push, and a subsequent
// ingest round-trips through the engine into another push.
func TestClientWatch(t *testing.T) {
	c, cli := servedCollector(t)
	defer c.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := cli.Watch(ctx, "device0", client.Query{Support: 3, Top: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var first client.WatchState
	select {
	case first = <-w.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("no initial watch state")
	}
	if first.Device != "device0" || first.TotalPairs != 1 {
		t.Fatalf("initial state = %+v", first)
	}
	if w.LastEventID() != first.Epoch {
		t.Errorf("LastEventID = %q, want %q", w.LastEventID(), first.Epoch)
	}
	if _, err := cli.SubmitEvents(ctx, "device0", []blktrace.Event{
		{Time: 200 * int64(time.Second), Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 10, Len: 1}},
		{Time: 200*int64(time.Second) + 1000, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 20, Len: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-w.Events():
		if st.Epoch == first.Epoch {
			t.Errorf("epoch did not advance past %s", first.Epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no push after ingest")
	}
}

func TestClientAfterStop(t *testing.T) {
	c, cli := servedCollector(t)
	c.Stop()
	_, err := cli.Stats(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != ErrCodeStopped {
		t.Errorf("post-stop error = %v, want 503 %s", err, ErrCodeStopped)
	}
}

// TestClientBothDaemons points the one typed client at each daemon and
// expects the same answers: the device listing decodes, device reads
// work and an unknown device is a typed 404, omitted parameters select
// the same server defaults, the long poll returns, holds, and reports
// no change, and a Watch is pushed the state, then a newer one, then
// the daemon's terminal reason.
func TestClientBothDaemons(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b *backend) {
		ctx := context.Background()
		cli := client.New(b.url)

		devices, err := cli.Devices(ctx)
		if err != nil || len(devices) != 2 || devices[0].ID != "vol0" || devices[1].ID != "vol1" {
			t.Fatalf("Devices = %+v, %v", devices, err)
		}
		snap, err := cli.DeviceSnapshot(ctx, "vol0", client.Query{Support: 3})
		if err != nil || snap.Device != "vol0" || snap.TotalPairs != 1 {
			t.Fatalf("DeviceSnapshot = %+v, %v", snap, err)
		}
		var apiErr *client.APIError
		if _, err := cli.DeviceRules(ctx, "nope", client.Query{}); !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != api.ErrCodeUnknownDevice {
			t.Errorf("DeviceRules on an unknown device = %v, want 404 %s", err, api.ErrCodeUnknownDevice)
		}
		// Query{Top: 0} omits the parameter: the server default applies,
		// it does not ask for zero rules.
		rules, err := cli.FleetRules(ctx, client.Query{Support: 3})
		if err != nil || len(rules.Rules) != 2 || len(rules.Devices) != 2 {
			t.Fatalf("FleetRules with defaults = %+v, %v; want both rules of the learned pair", rules, err)
		}

		st, tag, changed, err := cli.WatchPoll(ctx, "", client.Query{Support: 3}, "", time.Second)
		if err != nil || !changed || tag == "" || st.TotalPairs != 1 || len(st.Devices) != 2 {
			t.Fatalf("first WatchPoll = %+v, tag %q, changed %v, %v", st, tag, changed, err)
		}
		if _, again, changed, err := cli.WatchPoll(ctx, "", client.Query{Support: 3}, tag, 50*time.Millisecond); err != nil || changed || again != tag {
			t.Fatalf("held WatchPoll = tag %q, changed %v, %v; want no change under %q", again, changed, err, tag)
		}

		w, err := cli.Watch(ctx, "vol0", client.Query{Support: 3, Top: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		next := func() client.WatchState {
			t.Helper()
			select {
			case st, ok := <-w.Events():
				if !ok {
					t.Fatalf("watch ended early: %v", w.Err())
				}
				return st
			case <-time.After(5 * time.Second):
				t.Fatal("no watch delivery")
				return client.WatchState{}
			}
		}
		first := next()
		if first.Device != "vol0" || first.TotalPairs != 1 || len(first.Rules) == 0 || w.LastEventID() != first.Epoch {
			t.Fatalf("initial watch state = %+v (LastEventID %q)", first, w.LastEventID())
		}
		b.advance(t, "vol0", 200*int64(time.Second))
		if st := next(); st.Epoch == first.Epoch {
			t.Errorf("epoch did not advance past %s", first.Epoch)
		}
		b.stop()
		for range w.Events() {
			// a final flushed state may precede the end
		}
		var end *client.WatchEndError
		if err := w.Err(); !errors.As(err, &end) || end.Reason != b.endReason {
			t.Errorf("watch ended with %v, want WatchEndError %q", err, b.endReason)
		}
	})
}
