package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"daccor/internal/checkpoint"
	"daccor/internal/core"
)

// HealthState is one device's position in the supervisor's state
// machine:
//
//	Healthy ──panic──▶ Degraded ──restart budget exhausted──▶ Failed
//	   ▲                  │
//	   └──probation met───┘
//
// A panic in the device's worker moves it to Degraded; the supervisor
// restarts the worker (restoring the freshest checkpoint) under
// exponential backoff. Once the restarted worker has processed
// SupervisorConfig.Probation events without panicking the device
// returns to Healthy and its restart budget resets. If MaxRestarts
// consecutive restarts are burned without regaining health, the device
// becomes Failed: its worker exits, queued events are discarded, and
// every ingest or query against it returns ErrDeviceUnavailable
// immediately instead of hanging. Other devices are unaffected
// throughout.
type HealthState int

const (
	Healthy HealthState = iota
	Degraded
	Failed
)

func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("HealthState(%d)", int(h))
}

// ErrDeviceUnavailable is returned for ingest and queries against a
// device whose worker has failed permanently (restart budget
// exhausted) or whose query died in a worker panic. The engine's other
// devices keep serving.
var ErrDeviceUnavailable = errors.New("engine: device unavailable")

// Supervisor defaults; see SupervisorConfig.
const (
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffCap  = 5 * time.Second
	DefaultMaxRestarts = 8
	DefaultProbation   = 512
)

// SupervisorConfig tunes per-device panic recovery. The zero value
// selects the defaults.
type SupervisorConfig struct {
	// BackoffBase is the delay before the first restart; each
	// consecutive restart doubles it (default DefaultBackoffBase).
	BackoffBase time.Duration
	// BackoffCap bounds the backoff delay (default DefaultBackoffCap).
	BackoffCap time.Duration
	// MaxRestarts is how many consecutive restarts may be attempted
	// before the device is declared Failed (default
	// DefaultMaxRestarts). The counter resets when the device regains
	// health.
	MaxRestarts int
	// Probation is how many events a restarted worker must process
	// without panicking before the device transitions Degraded →
	// Healthy (default DefaultProbation).
	Probation uint64
}

// Validate reports whether the configuration is usable.
func (c SupervisorConfig) Validate() error {
	if c.BackoffBase < 0 || c.BackoffCap < 0 {
		return fmt.Errorf("engine: supervisor backoff must be >= 0 (base %v, cap %v)", c.BackoffBase, c.BackoffCap)
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("engine: supervisor MaxRestarts must be >= 0 (got %d)", c.MaxRestarts)
	}
	return nil
}

// withDefaults fills zero fields with the package defaults.
func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.BackoffBase == 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = DefaultBackoffCap
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = DefaultMaxRestarts
	}
	if c.Probation == 0 {
		c.Probation = DefaultProbation
	}
	return c
}

// BackoffDelay is the sleep before restart attempt n (1-based):
// exponential growth from BackoffBase, capped at BackoffCap, with
// ±50% jitter so a fleet of devices felled by one bad input does not
// restart in lockstep. Exported because it is the one retry discipline
// of the system: the fleet sync client reuses it for network retries,
// for the same thundering-herd reason.
func (c SupervisorConfig) BackoffDelay(attempt int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < attempt && d < c.BackoffCap; i++ {
		d *= 2
	}
	if d > c.BackoffCap {
		d = c.BackoffCap
	}
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// DeviceHealth is one device's supervision state, readable without a
// worker round trip (so it stays available while the device is
// restarting or failed).
type DeviceHealth struct {
	State HealthState
	// Panics counts worker panics over the device's lifetime.
	Panics uint64
	// Restarts counts supervisor restarts over the device's lifetime.
	Restarts uint64
	// ConsecutiveRestarts is the current run of restarts without a
	// return to health; it resets on Healthy.
	ConsecutiveRestarts int
	// LastRestart is when the supervisor last restarted the worker
	// (zero if never).
	LastRestart time.Time
	// CheckpointSeq is the generation of the device's newest written
	// or restored checkpoint (0 if none).
	CheckpointSeq uint64
	// LastCheckpoint is when that checkpoint was committed (zero if
	// none).
	LastCheckpoint time.Time
}

// health snapshots the shard's supervision state.
func (s *shard) health() DeviceHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DeviceHealth{
		State:               s.state,
		Panics:              s.panics,
		Restarts:            s.restarts,
		ConsecutiveRestarts: s.consecutive,
		LastRestart:         s.lastRestart,
		CheckpointSeq:       s.ckptGen,
		LastCheckpoint:      s.ckptTime,
	}
}

// supervise is the shard's top-level goroutine: it runs the worker
// loop, and when the loop dies in a panic it restores the freshest
// checkpoint and restarts it under backoff — or, once the restart
// budget is exhausted, parks the device as Failed until Stop. It is
// the only closer of s.done.
func (s *shard) supervise() {
	defer close(s.done)
	// Whatever path ends the supervisor — clean stop, unregister, or a
	// failed device finally stopping — the shard's synopsis can never
	// advance again; epoch waiters must get a terminal error, never
	// hang (no-op if fail() already ended them with a sharper one).
	defer s.endEpochWaiters(ErrStopped)
	for {
		v := s.runOnce()
		if v == nil {
			return // clean stop: queue drained, transaction flushed
		}

		s.metrics.panics.Inc()
		s.mu.Lock()
		s.panics++
		s.state = Degraded
		s.consecutive++
		attempt := s.consecutive
		s.mu.Unlock()
		// Queries the dead worker had claimed but not answered go back
		// to the head of the queue; the restarted worker answers them
		// against the restored state rather than leaving askers hung.
		s.qMu.Lock()
		if len(s.inflight) > 0 {
			s.queries = append(s.inflight, s.queries...)
			s.inflight = nil
		}
		s.qMu.Unlock()

		for {
			if attempt > s.super.MaxRestarts {
				s.fail()
				s.parkFailed()
				return
			}
			select {
			case <-time.After(s.super.BackoffDelay(attempt)):
			case <-s.stopCh:
				// Stop is in progress: skip the remaining backoff so
				// shutdown is prompt; the rebuilt worker still drains
				// and flushes below.
			}
			st, gen, err := s.rebuild()
			if err == nil {
				s.installRestart(st, gen)
				break
			}
			// Restore/rebuild failure burns a restart attempt too —
			// a device whose checkpoints cannot be read must not spin
			// forever.
			s.mu.Lock()
			s.consecutive++
			attempt = s.consecutive
			s.mu.Unlock()
		}
	}
}

// installRestart swaps the rebuilt device state in and records the
// restart. The old run is dead (router and workers have exited) and
// the new one has not started, so the supervisor goroutine owns s.st
// here.
func (s *shard) installRestart(st *deviceState, gen checkpoint.Generation) {
	s.st = st
	// The restored state carries its own transaction total; the
	// router-side count restarts from zero alongside it.
	s.txCount.Store(0)
	// Restored state is different state: invalidate epoch-gated caches
	// and wake watchers so they re-read the restored synopsis.
	s.bumpEpoch()
	s.metrics.restarts.Inc()
	s.mu.Lock()
	s.devCfg = st.devCfg
	s.restarts++
	s.lastRestart = time.Now()
	s.sinceRestart = 0
	if gen.Seq != 0 {
		s.ckptGen = gen.Seq
		s.ckptTime = gen.Time
	}
	s.mu.Unlock()
}

// fail transitions the device to Failed and answers every pending
// query with ErrDeviceUnavailable. The failed flag is published before
// the pending queries are drained, and ask re-checks it under qMu
// after enqueuing — so every query either lands before the drain (and
// is answered here) or observes the flag and is rejected; none can
// hang on the dead workers.
func (s *shard) fail() {
	s.failed.Store(true)
	s.mu.Lock()
	s.state = Failed
	panics := s.panics
	s.mu.Unlock()
	s.qMu.Lock()
	pend := append(s.inflight, s.queries...)
	s.inflight, s.queries = nil, nil
	s.qMu.Unlock()
	// Wake Block-policy submitters so they observe Failed and return.
	s.notFull.open()
	err := fmt.Errorf("%w: %q restart budget exhausted after %d panic(s)", ErrDeviceUnavailable, s.id, panics)
	for _, q := range pend {
		q.reply <- queryReply{err: err}
	}
	// Epoch waiters on a failed device get the same terminal answer as
	// queries: the worker is gone, the synopsis will never advance.
	s.endEpochWaiters(err)
}

// parkFailed holds the supervisor goroutine of a failed device until
// Stop, so Engine.Stop's wait on s.done still completes.
func (s *shard) parkFailed() {
	<-s.stopCh
}

// checkpointLoop periodically checkpoints the device. The worker only
// contributes the O(live entries) capture between batches (a
// consistent state with a bounded ingest stall); the binary encoding
// and the fsync-heavy store commit run on this goroutine, so a slow
// disk no longer holds up ingest for the duration of a write. Errors
// are counted (checkpoint_errors metric); a failed or stopped device
// makes the capture fail immediately, keeping the loop cheap until
// Stop ends it. A save takes ckptMu and is skipped once the stop path's
// final flush has been written: that one is the newest generation, and
// whatever this loop still holds was captured before it.
func (s *shard) checkpointLoop(interval time.Duration) {
	defer s.ckptLoop.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.capture(func(g core.RawGroup) error {
				s.ckptMu.Lock()
				defer s.ckptMu.Unlock()
				if s.ckptClosed {
					return nil
				}
				return s.commitCheckpoint(g)
			})
		case <-s.stopCh:
			return
		}
	}
}

// commitFinalCheckpoint saves the device's final state on the stop
// path, where the router is done ingesting and any partition workers
// have exited, so touching the analyzers directly is safe and encoding
// inline cannot stall anything. It waits out a periodic save in flight
// and closes the device's checkpoints behind itself (see shard.ckptMu).
func (s *shard) commitFinalCheckpoint(st *deviceState) error {
	if s.ckpt == nil {
		return nil
	}
	g := s.newGroup()
	for k, a := range st.analyzers {
		a.CaptureSnapshot(g[k])
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.ckptClosed = true
	return s.commitCheckpoint(g)
}

// commitCheckpoint persists a capture group as a new checkpoint
// generation and records it in the health view and metrics. The caller
// holds ckptMu.
func (s *shard) commitCheckpoint(g core.RawGroup) error {
	gen, err := s.ckpt.Save(s.id, s.encoding(g))
	if err != nil {
		s.metrics.ckptErrors.Inc()
		return err
	}
	s.metrics.ckpts.Inc()
	s.mu.Lock()
	s.ckptGen = gen.Seq
	s.ckptTime = gen.Time
	s.mu.Unlock()
	return nil
}

// noteProcessed advances the post-restart probation: once a degraded
// device has processed enough events without panicking it is healthy
// again and its restart budget resets.
func (s *shard) noteProcessed(n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.sinceRestart += uint64(n)
	if s.state == Degraded && s.sinceRestart >= s.super.Probation {
		s.state = Healthy
		s.consecutive = 0
	}
	s.mu.Unlock()
}
