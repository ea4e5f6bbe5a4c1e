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
// that an advance closes (waking every waiter at once) and replaces —
// but only once a waiter has taken it, so an advance nobody waits for
// allocates nothing. Waiters take the channel before they check their
// cursor, so an advance between the check and the block can never be
// missed;
// coalescing is inherent — a waiter woken after N advances sees only
// the latest cursor, which is exactly the semantics a snapshot
// consumer wants.

// EpochNotifier wakes waiters when a cursor advances, and carries a
// terminal error once the state it covers can never advance again
// (worker stopped, device failed, engine stopped, aggregator closed).
// Its Wait is the one wait loop behind every view: a device's, the
// engine's merged view, and the fleet aggregator's.
type EpochNotifier struct {
	mu sync.Mutex
	ch chan struct{}
	// taken records that a Wait has taken ch since it was made: only
	// then can a waiter be blocked on it, and only then does an advance
	// close it and make another.
	taken bool
	over  error // non-nil once terminal; ch is closed and never replaced
	// advanceNs is the UnixNano of the latest advance, read by the HTTP
	// layer to measure notification fan-out latency.
	advanceNs int64
}

// NewEpochNotifier returns a notifier with no advance yet.
func NewEpochNotifier() *EpochNotifier {
	return &EpochNotifier{ch: make(chan struct{})}
}

// Wake broadcasts one advance to every current waiter; a non-nil
// terminal error also ends every current and future wait with it.
// Terminal wakes are sticky: the first wins, later wakes (terminal or
// not) are no-ops. A non-terminal wake with no waiter holding the
// channel only stamps the advance: whoever takes the channel next
// checks its cursor after taking it, and the cursor has already moved.
func (n *EpochNotifier) Wake(terminal error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.over != nil {
		return
	}
	n.advanceNs = time.Now().UnixNano()
	if terminal != nil {
		close(n.ch)
		n.over = terminal
		return
	}
	if n.taken {
		close(n.ch)
		n.ch = make(chan struct{})
		n.taken = false
	}
}

// Wait blocks until changed reports true, the notifier turns terminal
// (its error is returned), or ctx is done (ctx.Err()). changed is
// checked first on every round, so a cursor that has moved is reported
// even after the end.
func (n *EpochNotifier) Wait(ctx context.Context, changed func() bool) error {
	for {
		n.mu.Lock()
		ch, over := n.ch, n.over
		n.taken = true
		n.mu.Unlock()
		if changed() {
			return nil
		}
		if over != nil {
			return over
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// LastAdvance returns when the notifier last woke waiters (zero time if
// never).
func (n *EpochNotifier) LastAdvance() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.advanceNs == 0 {
		return time.Time{}
	}
	return time.Unix(0, n.advanceNs)
}

// bumpEpoch advances the shard's epoch and wakes epoch waiters — ours
// and, through onEpoch, the engine's fleet-level ones. It replaces the
// bare epoch.Add at every synopsis-change site. The epoch moves before
// the merged cursor does, so a merged read that sees the new cursor
// also sees the new epoch, and a capture taken for it.
func (s *shard) bumpEpoch() {
	s.epoch.Add(1)
	s.notify.Wake(nil)
	s.onEpoch()
}

// endEpochWaiters marks the shard's epoch terminal: current and future
// waiters get err instead of blocking on a worker that is gone. The
// fleet is woken too — a device leaving the fleet changes the merged
// view.
func (s *shard) endEpochWaiters(err error) {
	s.notify.Wake(err)
	s.onEpoch()
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
	err = s.notify.Wait(ctx, func() bool { return s.epoch.Load() != since })
	return s.epoch.Load(), err
}

// EpochAdvanceTime returns when the named device's epoch last advanced
// (zero time if it never has) — the reference point for fan-out
// latency measurements.
func (e *Engine) EpochAdvanceTime(id string) (time.Time, error) {
	s, err := e.shard(id)
	if err != nil {
		return time.Time{}, err
	}
	return s.notify.LastAdvance(), nil
}

// fleetWake advances the merged cursor and wakes its waiters: the
// shards' onEpoch hook (each epoch advance, a failure, a stop), and
// Unregister. Register advances the cursor to seed the device's epoch.
func (e *Engine) fleetWake() {
	e.fleetEpoch.Add(1)
	e.fleet.Wake(nil)
}

// WaitMergedEpoch blocks until the merged cursor differs from the
// (counter, devices) pair and returns the new pair. After Stop, waiters
// are woken with ErrStopped.
func (e *Engine) WaitMergedEpoch(ctx context.Context, counter uint64, devices int) (uint64, int, error) {
	err := e.fleet.Wait(ctx, func() bool {
		c, n := e.MergedEpoch()
		return c != counter || n != devices
	})
	c, n := e.MergedEpoch()
	return c, n, err
}

// MergedEpochAdvanceTime returns when the merged view last advanced
// (zero time if it never has).
func (e *Engine) MergedEpochAdvanceTime() time.Time {
	return e.fleet.LastAdvance()
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
	at := sort.SearchStrings(e.order, id)
	e.order = append(e.order[:at], e.order[at+1:]...)
	e.devices.Store(int64(len(e.order)))
	// Stop the device's reads and advance the merged cursor before the
	// ID is free: the next device under it starts above every epoch
	// this one served (see DESIGN §3).
	s.requestStop()
	e.fleetWake()
	e.mu.Unlock()
	// Drop the device's series before waiting out the drain: the id is
	// already invisible to lookups (and to the scrape-time collect
	// hook, which iterates registered devices only), so nothing
	// recreates them — while a concurrent re-registration of the same
	// id after the drain would mint fresh series a late drop here must
	// not clobber. The draining worker keeps updating its detached
	// instruments harmlessly.
	e.metrics.DropSeries(obs.L("device", id))
	s.wait()
	return nil
}
