package realtime

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/engine"
	"daccor/internal/fleet"
	"daccor/internal/obs"
)

// backend is one daemon behind the shared /v1 read surface, as the
// cross-daemon suites see it. Both rows start from servedEngine's
// state (vol0 and vol1, the pair (10,20) seen seven times on each): the
// engine row serves that engine directly, as charactld does; the
// aggregator row mirrors it through a real sync client into an
// aggregator behind its own handler, as charactld → aggregatord does.
// A suite that passes on both rows has shown the two daemons answer
// the same requests the same way.
type backend struct {
	url string        // base URL of the daemon under test
	reg *obs.Registry // the daemon's metrics registry
	// feed submits events to a device and returns once the daemon's
	// state — and therefore its cursor — reflects them.
	feed func(device string, evs []blktrace.Event) error
	// stop makes the daemon terminal for watchers: Engine.Stop, or
	// Aggregator.Close.
	stop func()
	// endReason is the reason of the watch streams' final `end` event
	// after stop. stoppedCode is the 503 error code every read route
	// answers after stop, or "" when reads keep serving (a closed
	// aggregator still answers from its mirrors).
	endReason   string
	stoppedCode string
}

// forEachBackend runs body once per daemon, as subtests.
func forEachBackend(t *testing.T, body func(t *testing.T, b *backend)) {
	t.Run("engine", func(t *testing.T) { body(t, engineBackend(t)) })
	t.Run("aggregator", func(t *testing.T) { body(t, aggregatorBackend(t)) })
}

func engineBackend(t *testing.T) *backend {
	e, srv := servedEngine(t)
	t.Cleanup(e.Stop)
	return &backend{
		url: srv.URL, reg: e.Metrics(),
		feed:      e.SubmitBatch,
		stop:      e.Stop,
		endReason: ErrCodeStopped, stoppedCode: ErrCodeStopped,
	}
}

func aggregatorBackend(t *testing.T) *backend {
	e, _ := servedEngine(t)
	t.Cleanup(e.Stop)
	// Leases far beyond any test: collector liveness is not under test
	// here (internal/fleet's staleness tests own that).
	agg := fleet.NewAggregator(fleet.Config{Lease: time.Hour, FailAfter: time.Hour})
	srv := httptest.NewServer(fleet.NewHandler(agg))
	t.Cleanup(srv.Close)
	sc, err := fleet.NewSyncClient(fleet.ClientConfig{Aggregator: srv.URL, Collector: "c0", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	sync := func() error {
		_, err := sc.SyncNow(context.Background())
		return err
	}
	must(t, sync())
	return &backend{
		url: srv.URL, reg: agg.Metrics(),
		feed: func(device string, evs []blktrace.Event) error {
			ds, err := e.DeviceStatsFor(device)
			if err != nil {
				return err
			}
			if err := e.SubmitBatch(device, evs); err != nil {
				return err
			}
			if err := awaitAnalyzed(e, device, ds.Monitor.Events+ds.Dropped+uint64(len(evs))); err != nil {
				return err
			}
			return sync()
		},
		stop:      agg.Close,
		endReason: fleet.ErrCodeClosed,
	}
}

// awaitAnalyzed blocks until the device has consumed want events.
func awaitAnalyzed(e *engine.Engine, device string, want uint64) error {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ds, err := e.DeviceStatsFor(device)
		if err != nil {
			return err
		}
		if ds.Monitor.Events+ds.Dropped >= want && ds.Lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return context.DeadlineExceeded
		}
	}
}

// advance feeds one correlated pair at a fresh event time (see
// pairAt), moving the device's (and the merged view's) cursor.
func (b *backend) advance(t *testing.T, device string, base int64) {
	t.Helper()
	if err := b.feed(device, pairAt(base)); err != nil {
		t.Fatal(err)
	}
}
