// Package soak drives the full service — engine, supervisor,
// checkpoints, HTTP API, SSE watch — under sustained multi-tenant load
// with tenant churn and injected worker crashes, and asserts the
// service-level objectives that individual unit tests cannot see:
// tail submit latency, bounded drop rate, bounded heap growth, no
// goroutine leaks, and no stalled watchers. A run produces a Result
// whose Violations name every SLO it missed; cmd/loadgen exits
// non-zero on any of them, and that exit status is the soak gate.
package soak

import (
	"fmt"
	"time"

	"daccor/internal/engine"
)

// SLO is the set of objectives a run must meet. Zero thresholds mean
// "not asserted" except where noted.
type SLO struct {
	// SubmitP99 bounds the p99 latency of one engine-path SubmitBatch
	// call.
	SubmitP99 time.Duration
	// HTTPSubmitP99 bounds the p99 latency of one HTTP ingest POST —
	// the engine bound plus transport, JSON, and handler overhead.
	HTTPSubmitP99 time.Duration
	// MaxDropPct bounds shed events as a percentage of submitted
	// events (DropOldest sheds under overload and during crash-restart
	// windows; a healthy run stays far below the bound).
	MaxDropPct float64
	// MaxHeapGrowth bounds live-heap growth from the post-warmup
	// baseline to after shutdown. The analyzers are capacity-bounded
	// and churned tenants must be fully released, so growth is
	// O(config), never O(events).
	MaxHeapGrowth uint64
	// MaxGoroutineGrowth bounds the goroutine count after shutdown
	// relative to the pre-run baseline.
	MaxGoroutineGrowth int
	// MaxWatchGap bounds the wall-clock gap between consecutive
	// deliveries on any per-device watcher while load is flowing —
	// the stream-liveness signal. The fleet stream is exempt: its
	// deliveries require the fleet-wide top-K to change, which no
	// workload guarantees on a clock; it is asserted live (at least
	// one delivery) and its gap is reported, not gated.
	MaxWatchGap time.Duration
	// MaxReorderLatePct bounds late reordering-buffer releases (events
	// emitted to analysis behind an already-released timestamp) as a
	// percentage of submitted events. Every producer's per-tenant
	// stream is monotone, so late releases should be rare even when
	// partition workers interleave; a high rate means the reordering
	// window is mis-sized or the ingest path scrambles order.
	MaxReorderLatePct float64
	// MaxSyncAge bounds the aggregator-observed age of the collector's
	// last successful sync at any sample point — the fleet view's
	// staleness SLO. Only asserted with Config.FleetSync.
	MaxSyncAge time.Duration
}

// Config describes one soak run.
type Config struct {
	// Devices is the registered fleet size.
	Devices int
	// Events is the total event count to submit across the fleet; the
	// run ends when it is reached.
	Events uint64
	// Feeders is how many concurrent engine-path producers share the
	// fleet. One additional producer always drives the HTTP ingest
	// route.
	Feeders int
	// Batch is the events-per-SubmitBatch (and per ingest POST).
	Batch int
	// QueueSize is the per-device ring capacity.
	QueueSize int
	// Partitions splits each device's analyzer into this many
	// sub-shards processed by parallel partition workers
	// (engine.WithPartitions); 0 or 1 keeps the single-partition
	// pipeline.
	Partitions int
	// ChurnFrac is the fraction of the fleet cycled through
	// Unregister/re-Register while load is flowing.
	ChurnFrac float64
	// Panics is how many worker crashes to inject via the process
	// hook, spread across the run.
	Panics int
	// Watchers is how many concurrent SSE watchers to hold open (one
	// is always the fleet route, the rest watch stable devices).
	Watchers int
	// Window is the monitor's static grouping window.
	Window time.Duration
	// CheckpointEvery is the periodic checkpoint interval.
	CheckpointEvery time.Duration
	// FleetSync enables the fleet topology: the engine doubles as a
	// collector pushing delta syncs at this interval to an in-process
	// aggregator, whose merged read surface and staleness are sampled
	// throughout the run and whose mirror must converge on the
	// engine's merged snapshot at the end. 0 disables.
	FleetSync time.Duration
	// Seed derives every tenant's workload stream; a run is
	// reproducible per (Config, Seed).
	Seed int64
	// MinDuration paces the producers so the run lasts at least this
	// long: soak is sustained load with churn, crashes, and watch
	// traffic happening mid-stream, not a burst that outruns its
	// observers.
	MinDuration time.Duration
	// MaxDuration aborts a wedged run; hitting it is an SLO violation.
	MaxDuration time.Duration
	// SLO is the objective set asserted after the run.
	SLO SLO
}

// Quick is the CI soak profile: a million-event multi-tenant run with
// double-digit churn and injected crashes, sized to finish in tens of
// seconds under -race on a laptop.
func Quick() Config {
	return Config{
		Devices: 256,
		Events:  1_200_000,
		Feeders: 8,
		// Smaller batches mean each device is visited more often per
		// round-robin sweep, which bounds how stale any one watched
		// device's stream can get.
		Batch:     128,
		QueueSize: 1024,
		ChurnFrac: 0.12,
		Panics:    2,
		Watchers:  4,
		Window:    5 * time.Millisecond,
		// Each cycle serializes and fsyncs every device's synopsis —
		// 256 files — so the interval stays coarse enough that
		// checkpointing is a periodic event, not a standing load.
		CheckpointEvery: 5 * time.Second,
		// One sync round per second keeps the aggregator at most a
		// round behind the fleet while churn and crashes are flowing.
		FleetSync: time.Second,
		Seed:      1,
		// 1.2M events over >= 2 minutes is ~10k events/s — inside what
		// a single-core CI runner sustains under -race, so the SLOs
		// measure the service, not the host's saturation point.
		MinDuration: 2 * time.Minute,
		MaxDuration: 10 * time.Minute,
		// The bounds are sized for a single-core -race CI runner: they
		// catch order-of-magnitude regressions (a wedged path, a leak,
		// a stalled stream), not drift in the measured values.
		SLO: SLO{
			SubmitP99:          250 * time.Millisecond,
			HTTPSubmitP99:      4500 * time.Millisecond,
			MaxDropPct:         10,
			MaxHeapGrowth:      160 << 20,
			MaxGoroutineGrowth: 8,
			MaxWatchGap:        30 * time.Second,
			MaxReorderLatePct:  1,
			// The staleness bound is a multiple of the sync interval:
			// under -race on one core a round can stretch, but an age
			// in the tens of seconds means the sync path is wedged.
			MaxSyncAge: 30 * time.Second,
		},
	}
}

// Tiny is a seconds-scale profile for the package's own tests: the
// same machinery (churn, panics, watchers, checkpoints) at a size a
// unit-test budget tolerates.
func Tiny() Config {
	return Config{
		Devices:         8,
		Events:          20_000,
		Feeders:         2,
		Batch:           64,
		QueueSize:       256,
		ChurnFrac:       0.25,
		Panics:          1,
		Watchers:        2,
		Window:          5 * time.Millisecond,
		CheckpointEvery: 50 * time.Millisecond,
		FleetSync:       100 * time.Millisecond,
		Seed:            1,
		MinDuration:     2 * time.Second,
		MaxDuration:     2 * time.Minute,
		SLO: SLO{
			SubmitP99:          time.Second,
			HTTPSubmitP99:      2 * time.Second,
			MaxDropPct:         25,
			MaxHeapGrowth:      64 << 20,
			MaxGoroutineGrowth: 8,
			MaxWatchGap:        10 * time.Second,
			MaxReorderLatePct:  5,
			MaxSyncAge:         10 * time.Second,
		},
	}
}

// churnCycles is how many Unregister/re-Register cycles ChurnFrac
// implies.
func (c Config) churnCycles() int {
	return int(c.ChurnFrac * float64(c.Devices))
}

func (c Config) validate() error {
	if c.Devices < 1 {
		return fmt.Errorf("soak: Devices must be >= 1 (got %d)", c.Devices)
	}
	if c.Events == 0 {
		return fmt.Errorf("soak: Events must be > 0")
	}
	if c.Feeders < 1 {
		return fmt.Errorf("soak: Feeders must be >= 1 (got %d)", c.Feeders)
	}
	if c.Batch < 1 {
		return fmt.Errorf("soak: Batch must be >= 1 (got %d)", c.Batch)
	}
	if c.QueueSize < c.Batch {
		return fmt.Errorf("soak: QueueSize %d must hold at least one batch of %d", c.QueueSize, c.Batch)
	}
	if c.Partitions < 0 || c.Partitions > engine.MaxPartitions {
		return fmt.Errorf("soak: Partitions %d out of [0, %d]", c.Partitions, engine.MaxPartitions)
	}
	if c.ChurnFrac < 0 || c.ChurnFrac > 1 {
		return fmt.Errorf("soak: ChurnFrac %v out of [0, 1]", c.ChurnFrac)
	}
	if c.Panics < 0 {
		return fmt.Errorf("soak: Panics must be >= 0 (got %d)", c.Panics)
	}
	if c.Watchers < 1 {
		return fmt.Errorf("soak: Watchers must be >= 1 (got %d)", c.Watchers)
	}
	// Device watchers hold their stream across the whole run, so their
	// targets must never be churned: victims come from the front of
	// the id space, watch targets from the back.
	if c.churnCycles()+c.Watchers-1 > c.Devices {
		return fmt.Errorf("soak: %d churn cycles + %d device watchers need more than %d devices",
			c.churnCycles(), c.Watchers-1, c.Devices)
	}
	if c.Window <= 0 {
		return fmt.Errorf("soak: Window must be > 0 (got %v)", c.Window)
	}
	if c.CheckpointEvery <= 0 {
		return fmt.Errorf("soak: CheckpointEvery must be > 0 (got %v)", c.CheckpointEvery)
	}
	if c.FleetSync < 0 {
		return fmt.Errorf("soak: FleetSync must be >= 0 (got %v)", c.FleetSync)
	}
	if c.MinDuration < 0 {
		return fmt.Errorf("soak: MinDuration must be >= 0 (got %v)", c.MinDuration)
	}
	if c.MaxDuration <= 0 {
		return fmt.Errorf("soak: MaxDuration must be > 0 (got %v)", c.MaxDuration)
	}
	if c.MinDuration >= c.MaxDuration {
		return fmt.Errorf("soak: MinDuration %v must be below MaxDuration %v", c.MinDuration, c.MaxDuration)
	}
	return nil
}
