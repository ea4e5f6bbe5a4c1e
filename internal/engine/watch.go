package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"daccor/internal/obs"
)

// This file is the push half of the epoch design from the read path:
// PR 5 gave every shard a monotone epoch so readers could *validate*
// cheaply; here the epoch also *notifies*, so a watcher blocks on a
// channel instead of polling If-None-Match in a loop. The mechanism is
// the classic closed-channel broadcast: each notifier holds a channel
// that is closed (waking every waiter at once) and replaced on every
// advance. Waiters re-read the epoch after grabbing the channel, so a
// bump between the read and the grab can never be missed; coalescing
// is inherent — a waiter woken after N bumps sees only the latest
// epoch, which is exactly the semantics a snapshot consumer wants.

// epochNotifier wakes waiters when an epoch advances, and carries a
// terminal error once the state it covers can never advance again
// (worker stopped, device failed, engine stopped).
type epochNotifier struct {
	mu   sync.Mutex
	ch   chan struct{}
	over error // non-nil once terminal; ch is closed and never replaced
	// advanceNs is the UnixNano of the latest advance, read by the HTTP
	// layer to measure notification fan-out latency.
	advanceNs int64
}

func newEpochNotifier() *epochNotifier {
	return &epochNotifier{ch: make(chan struct{})}
}

// wake broadcasts one advance to every current waiter. Terminal wakes
// are sticky: the first wins, later wakes (terminal or not) are no-ops.
func (n *epochNotifier) wake(terminal error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.over != nil {
		return
	}
	n.advanceNs = time.Now().UnixNano()
	close(n.ch)
	if terminal != nil {
		n.over = terminal
		return
	}
	n.ch = make(chan struct{})
}

// grab returns the current wait channel and the terminal error, if any.
func (n *epochNotifier) grab() (<-chan struct{}, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ch, n.over
}

// lastAdvance returns when the notifier last woke waiters (zero time if
// never).
func (n *epochNotifier) lastAdvance() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.advanceNs == 0 {
		return time.Time{}
	}
	return time.Unix(0, n.advanceNs)
}

// bumpEpoch advances the shard's epoch and wakes epoch waiters — ours
// and, through onEpoch, the engine's fleet-level ones. It replaces the
// bare epoch.Add at every synopsis-change site.
func (s *shard) bumpEpoch() {
	s.epoch.Add(1)
	s.notify.wake(nil)
	if s.onEpoch != nil {
		s.onEpoch()
	}
}

// endEpochWaiters marks the shard's epoch terminal: current and future
// waiters get err instead of blocking on a worker that is gone. The
// fleet is woken too — a device leaving the fleet changes the merged
// view.
func (s *shard) endEpochWaiters(err error) {
	s.notify.wake(err)
	if s.onEpoch != nil {
		s.onEpoch()
	}
}

// waitEpoch blocks until the shard's epoch differs from since, the
// shard becomes terminal (returns the notifier's terminal error), or
// ctx is done (returns ctx.Err()). The current epoch is returned in
// every case.
func (s *shard) waitEpoch(ctx context.Context, since uint64) (uint64, error) {
	for {
		if cur := s.epoch.Load(); cur != since {
			return cur, nil
		}
		ch, over := s.notify.grab()
		// Re-check after grabbing the channel: a bump between the load
		// and the grab already closed a channel we never held.
		if cur := s.epoch.Load(); cur != since {
			return cur, nil
		}
		if over != nil {
			return s.epoch.Load(), over
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return s.epoch.Load(), ctx.Err()
		}
	}
}

// WaitEpoch blocks until the named device's epoch differs from since,
// then returns the new epoch. It returns immediately when the current
// epoch already differs — a caller resuming from a stale cursor pays
// nothing. On Stop (or device failure) waiters are woken with the
// corresponding sentinel error instead of hanging; on ctx cancellation
// the context's error is returned. The wait is notification-driven:
// no polling anywhere.
func (e *Engine) WaitEpoch(ctx context.Context, id string, since uint64) (uint64, error) {
	s, err := e.shard(id)
	if err != nil {
		return 0, err
	}
	return s.waitEpoch(ctx, since)
}

// EpochAdvanceTime returns when the named device's epoch last advanced
// (zero time if it never has) — the reference point for fan-out
// latency measurements.
func (e *Engine) EpochAdvanceTime(id string) (time.Time, error) {
	s, err := e.shard(id)
	if err != nil {
		return time.Time{}, err
	}
	return s.notify.lastAdvance(), nil
}

// fleetWake forwards one device advance to fleet-level waiters. It is
// the engine's onEpoch hook, called from shard routers and supervisors.
func (e *Engine) fleetWake() {
	e.fleet.wake(nil)
}

// WaitMergedEpoch blocks until the merged epoch differs from the
// (sum, devices) pair — any device processing a batch, restarting,
// registering, unregistering, or flushing on stop changes it — and
// returns the new pair. After Stop, waiters are woken with ErrStopped.
func (e *Engine) WaitMergedEpoch(ctx context.Context, sum uint64, devices int) (uint64, int, error) {
	for {
		if s, n := e.MergedEpoch(); s != sum || n != devices {
			return s, n, nil
		}
		ch, over := e.fleet.grab()
		if s, n := e.MergedEpoch(); s != sum || n != devices {
			return s, n, nil
		}
		if over != nil {
			s, n := e.MergedEpoch()
			return s, n, over
		}
		select {
		case <-ch:
		case <-ctx.Done():
			s, n := e.MergedEpoch()
			return s, n, ctx.Err()
		}
	}
}

// MergedEpochAdvanceTime returns when any device's epoch last advanced
// (zero time if none has).
func (e *Engine) MergedEpochAdvanceTime() time.Time {
	return e.fleet.lastAdvance()
}

// Unregister removes a device from the engine: its worker drains the
// queued events, flushes the open transaction, writes a final
// checkpoint, and exits; pending queries are answered first. Epoch
// waiters on the device are woken with a terminal error, and fleet
// waiters are woken because the merged view changed. The device's
// metric series (including the GaugeFunc closures that would otherwise
// pin the dead shard) are dropped from the registry, so cycling tenant
// IDs through Register/Unregister leaves registry cardinality and heap
// flat. The device ID is free for re-registration afterwards. Returns
// ErrUnknownDevice if the device is not registered and ErrStopped
// after Stop (which already stops every device).
func (e *Engine) Unregister(id string) error {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return ErrStopped
	}
	s, ok := e.shards[id]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	delete(e.shards, id)
	e.regGen++
	at := sort.SearchStrings(e.order, id)
	e.order = append(e.order[:at], e.order[at+1:]...)
	e.mu.Unlock()
	// Drop the device's series before the drain, not after: the id is
	// already invisible to lookups (and to the scrape-time collect
	// hook, which iterates registered devices only), so nothing
	// recreates them — while a concurrent re-registration of the same
	// id after the drain would mint fresh series a late drop here must
	// not clobber. The draining worker keeps updating its detached
	// instruments harmlessly.
	e.metrics.DropSeries(obs.L("device", id))
	s.requestStop()
	s.wait()
	e.fleetWake()
	return nil
}
