// Package engine runs the characterization framework for a fleet of
// block devices. Each registered device gets its own monitor and
// synopsis, owned by a dedicated router goroutine (see shard) and fed
// through a bounded event queue with an explicit drop-oldest
// backpressure policy — a live characterizer must never stall the I/O
// path it observes, so when a device falls behind the oldest
// unprocessed events are discarded and counted rather than blocking
// the producer. Per-device drop and lag counters expose that behaviour
// to operators.
//
// On top of the per-device shards sits cross-device aggregation:
// MergedSnapshot and MergedState read the union of the per-device
// exports (kept incrementally in a core.MergeIndex) so callers can ask
// both "what correlates on volume 3" and "what correlates fleet-wide".
// A single-device deployment is the N=1 case: an engine with one
// registered device.
package engine

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
	"daccor/internal/obs"
)

// DefaultQueueSize is the per-device event queue capacity used when no
// WithQueueSize option is given. It is rounded up to a power of two by
// the lock-free ring.
const DefaultQueueSize = 4096

// DefaultReorderBuffer is the per-device timestamp-reordering buffer
// capacity used when no WithReorderBuffer option is given. With
// multiple producers racing on the ingest ring, events can interleave
// slightly out of timestamp order; the buffer repairs any inversion
// narrower than its capacity before the monitor sees it.
const DefaultReorderBuffer = 256

// MaxPartitions bounds WithPartitions; the transaction router tracks
// partition membership in a 64-bit mask.
const MaxPartitions = 64

// Backpressure selects what Submit does when a device's queue is full.
type Backpressure int

const (
	// DropOldest discards the oldest queued event (counted per device)
	// to admit the new one without ever stalling the producer — the
	// right policy for a monitor attached to a live I/O path, and the
	// engine's default.
	DropOldest Backpressure = iota
	// Block makes Submit wait until the worker frees queue space; no
	// events are lost, at the cost of backpressure propagating to the
	// producer. Used by offline/replayed ingestion.
	Block
)

// MaxDeviceID bounds a device ID in bytes. A fleet sync frame and the
// aggregator's state carry each ID in at most this many bytes, so a
// longer one could never leave its collector.
const MaxDeviceID = 256

// Errors returned by engine operations.
var (
	ErrStopped         = errors.New("engine: stopped")
	ErrUnknownDevice   = errors.New("engine: unknown device")
	ErrDuplicateDevice = errors.New("engine: device already registered")
	ErrInvalidDeviceID = errors.New("engine: invalid device id")
)

// settings collects what the functional options configure.
type settings struct {
	mon          monitor.Config
	an           core.Config
	queueSize    int
	policy       Backpressure
	parts        int
	reorder      int
	devices      []string
	metrics      *obs.Registry
	super        SupervisorConfig
	ckptStore    *checkpoint.Store
	ckptInterval time.Duration
	procHook     func(device string, ev blktrace.Event)
}

// Option configures an Engine under construction; see With*.
type Option func(*settings)

// WithMonitor sets the monitoring-module template (window policy,
// transaction cap, PID filter) every registered device's monitor is
// built from. A nil Window selects the paper's dynamic window
// (monitor.DefaultWindow), one instance per device.
func WithMonitor(cfg monitor.Config) Option {
	return func(s *settings) { s.mon = cfg }
}

// WithAnalyzer sets the synopsis configuration (table capacities,
// promotion threshold) every registered device's synopsis is built
// from.
func WithAnalyzer(cfg core.Config) Option {
	return func(s *settings) { s.an = cfg }
}

// WithQueueSize sets the per-device event queue capacity (default
// DefaultQueueSize).
func WithQueueSize(n int) Option {
	return func(s *settings) { s.queueSize = n }
}

// WithBackpressure selects the full-queue policy (default DropOldest).
func WithBackpressure(p Backpressure) Option {
	return func(s *settings) { s.policy = p }
}

// WithPartitions splits every device's analyzer into n sub-shards for
// intra-device scale-up: extents hash to a partition (core.PartitionOf)
// and each partition's slice of every transaction is applied by its own
// worker goroutine, so one hot device can use n cores for its synopsis
// updates. Pair ownership goes to the canonical minimum extent of the
// pair, keeping membership lists partition-local; device-level
// snapshots, rules, stats, and checkpoints are merged views over the n
// slices, which the device's router reads once the workers have applied
// everything routed to them. At the default, n = 1, there are no
// partition workers: the router applies each transaction to the one
// synopsis itself.
func WithPartitions(n int) Option {
	return func(s *settings) { s.parts = n }
}

// WithReorderBuffer sets the capacity of the per-device
// timestamp-reordering buffer between the ingest ring and the monitor
// (default DefaultReorderBuffer; 0 disables reordering). Inversions
// wider than the buffer are released anyway and counted in the
// reorder_late metric.
func WithReorderBuffer(n int) Option {
	return func(s *settings) { s.reorder = n }
}

// WithDevices registers the given device IDs at construction time;
// more can be added later with Register.
func WithDevices(ids ...string) Option {
	return func(s *settings) { s.devices = append(s.devices, ids...) }
}

// WithMetrics makes the engine publish its instruments into an
// existing registry instead of creating its own — so one process can
// expose several engines (or extra app-level metrics) from a single
// /v1/metrics endpoint. Engines sharing a registry must not share
// device IDs, or their per-device series would collide.
func WithMetrics(r *obs.Registry) Option {
	return func(s *settings) { s.metrics = r }
}

// WithSupervisor tunes per-device panic recovery: restart backoff,
// the consecutive-restart budget, and the probation that returns a
// degraded device to health. The zero config (and the default when
// this option is absent) selects the package defaults — supervision is
// always on.
func WithSupervisor(sc SupervisorConfig) Option {
	return func(s *settings) { s.super = sc }
}

// WithCheckpoints attaches a checkpoint store to the engine: each
// device restores the freshest valid generation when it is registered
// (avoiding the cold-start transient) and after a supervised restart,
// writes a new generation every interval, and flushes a final one on
// Stop. The worst case a crash or panic can lose is therefore one
// interval of counts.
func WithCheckpoints(store *checkpoint.Store, interval time.Duration) Option {
	return func(s *settings) {
		s.ckptStore = store
		s.ckptInterval = interval
	}
}

// WithProcessHook installs fn on every device worker's event path,
// invoked just before each event is analyzed. It exists for the
// fault-injection test harness — a hook that panics deterministically
// exercises the supervisor exactly where a real synopsis bug would —
// and must be nil in production configurations.
func WithProcessHook(fn func(device string, ev blktrace.Event)) Option {
	return func(s *settings) { s.procHook = fn }
}

// Engine is the multi-device collection engine. All methods are safe
// for concurrent use.
type Engine struct {
	mon          monitor.Config
	an           core.Config
	queueSize    int
	policy       Backpressure
	parts        int
	reorder      int
	metrics      *obs.Registry
	super        SupervisorConfig
	ckptStore    *checkpoint.Store
	ckptInterval time.Duration
	procHook     func(device string, ev blktrace.Event)

	mu      sync.Mutex
	shards  map[string]*shard
	order   []string // sorted by device ID, for deterministic listings
	stopped bool

	// The merged cursor (MergedEpoch): fleetEpoch counts the changes of
	// the merged view (see fleetWake), devices is the device count; both
	// atomic, so that reading the cursor never takes mu. fleet wakes its
	// waiters.
	fleet      *EpochNotifier
	fleetEpoch atomic.Uint64
	devices    atomic.Int64

	// The fleet-wide view: a merge index synced to the live devices'
	// cached support-0 exports (shard.export), one source per device at
	// every P, which it holds by reference (core.MergeIndex.Sync). A
	// bounded read is one pass over the union; only MergedSnapshot
	// materializes the sorted export. mergeEpoch is the merged cursor
	// the index was last synced at (mergeDevices, the count then): while
	// the cursor stays there the sync is skipped, and the zero cursor is
	// the empty fleet the index starts as. The cursor is read before the
	// exports, so it can only under-claim freshness. mergeMu is taken
	// before any shard's snapMu, and before mu.
	mergeMu      sync.Mutex
	mergeIdx     *core.MergeIndex
	mergeEpoch   uint64
	mergeDevices int
}

// New builds an engine from functional options:
//
//	e, err := engine.New(
//	        engine.WithAnalyzer(core.Config{ItemCapacity: 32 << 10, PairCapacity: 32 << 10}),
//	        engine.WithQueueSize(8192),
//	        engine.WithDevices("vol0", "vol1"),
//	)
//
// The monitor and analyzer templates are validated up front, partition
// sizing included, so misconfiguration fails at construction, not at
// first Register.
func New(opts ...Option) (*Engine, error) {
	s := settings{queueSize: DefaultQueueSize, policy: DropOldest, parts: 1, reorder: DefaultReorderBuffer}
	for _, o := range opts {
		o(&s)
	}
	if s.queueSize < 1 {
		return nil, fmt.Errorf("engine: queue size must be >= 1 (got %d)", s.queueSize)
	}
	if s.policy != DropOldest && s.policy != Block {
		return nil, fmt.Errorf("engine: unknown backpressure policy %d", s.policy)
	}
	if s.parts < 1 || s.parts > MaxPartitions {
		return nil, fmt.Errorf("engine: partitions must be in [1, %d] (got %d)", MaxPartitions, s.parts)
	}
	if s.reorder < 0 {
		return nil, fmt.Errorf("engine: reorder buffer must be >= 0 (got %d)", s.reorder)
	}
	if err := withWindow(s.mon).Validate(); err != nil {
		return nil, err
	}
	if err := s.an.Validate(); err != nil {
		return nil, err
	}
	if _, err := s.an.Split(s.parts); err != nil {
		return nil, err
	}
	if err := s.super.Validate(); err != nil {
		return nil, err
	}
	if s.ckptStore != nil && s.ckptInterval <= 0 {
		return nil, fmt.Errorf("engine: checkpoint interval must be > 0 (got %v)", s.ckptInterval)
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	e := &Engine{
		mon:          s.mon,
		an:           s.an,
		queueSize:    s.queueSize,
		policy:       s.policy,
		parts:        s.parts,
		reorder:      s.reorder,
		metrics:      s.metrics,
		super:        s.super.withDefaults(),
		ckptStore:    s.ckptStore,
		ckptInterval: s.ckptInterval,
		procHook:     s.procHook,
		shards:       make(map[string]*shard),
		fleet:        NewEpochNotifier(),
		mergeIdx:     core.NewMergeIndex(),
	}
	// Monitor and analyzer counters are worker-owned; mirror them into
	// the registry only when something actually scrapes.
	e.metrics.OnCollect(e.collect)
	for _, id := range s.devices {
		if err := e.Register(id); err != nil {
			e.Stop()
			return nil, err
		}
	}
	return e, nil
}

// Register adds a device, building its monitor and synopsis from the
// engine's templates and starting its supervised worker. When a
// checkpoint store is attached, the device restores its freshest valid
// checkpoint generation instead of starting cold. Devices can be
// registered while the engine is live; registering after Stop returns
// ErrStopped. An ID must be 1 to MaxDeviceID bytes long
// (ErrInvalidDeviceID).
func (e *Engine) Register(id string) error {
	if id == "" || len(id) > MaxDeviceID {
		return fmt.Errorf("%w: %d bytes, want 1 to %d", ErrInvalidDeviceID, len(id), MaxDeviceID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return ErrStopped
	}
	if _, ok := e.shards[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateDevice, id)
	}
	sh := newShard(id, e.queueSize, e.parts, e.policy)
	sh.super = e.super
	sh.ckpt = e.ckptStore
	sh.hook = e.procHook
	sh.rebuild = func() (*deviceState, checkpoint.Generation, error) {
		return e.buildState(sh)
	}
	st, gen, err := e.buildState(sh)
	if err != nil {
		return err
	}
	sh.st = st
	sh.devCfg = st.devCfg
	if gen.Seq != 0 {
		sh.ckptGen = gen.Seq
		sh.ckptTime = gen.Time
	}
	sh.onEpoch = e.fleetWake
	sh.metrics = newShardMetrics(e.metrics, sh, sh.ring.capacity())
	// The device's epoch starts at the merged cursor its registration
	// advances: above every epoch an earlier device under this ID served
	// (see DESIGN §3).
	sh.epoch.Store(e.fleetEpoch.Add(1))
	e.shards[id] = sh
	// Keep the listing order sorted by ID rather than by registration:
	// devices registered concurrently would otherwise make /v1/devices
	// and the metrics exposition depend on goroutine scheduling.
	at := sort.SearchStrings(e.order, id)
	e.order = append(e.order, "")
	copy(e.order[at+1:], e.order[at:])
	e.order[at] = id
	e.devices.Store(int64(len(e.order)))
	go sh.supervise()
	if e.ckptStore != nil {
		sh.ckptLoop.Add(1)
		go sh.checkpointLoop(e.ckptInterval)
	}
	e.fleet.Wake(nil)
	return nil
}

// withWindow fills a template's nil window policy with the monitor
// default. The policy is stateful, so this runs once per monitor built.
func withWindow(c monitor.Config) monitor.Config {
	if c.Window == nil {
		c.Window = monitor.DefaultWindow()
	}
	return c
}

// buildState constructs one device's router-side state from the engine
// templates: the synopsis restored from the freshest valid checkpoint
// generation if there is one, cold from the analyzer config otherwise,
// in P partition slices either way — a checkpoint is one device-level
// file whatever P wrote it (see core.RawGroup.EncodeMerged) and is
// re-split across the current partition count here. P decides the
// monitor's sink: with one slice the router applies each transaction to
// it inline; with more it routes each, unsorted, down per-partition
// rings to the workers runOnce starts, which only apply them. The
// returned generation is zero unless a checkpoint was restored.
func (e *Engine) buildState(sh *shard) (*deviceState, checkpoint.Generation, error) {
	st := &deviceState{devCfg: e.an, rb: newReorderBuffer(e.reorder)}
	var gen checkpoint.Generation
	var err error
	if e.ckptStore != nil {
		var restored *core.Analyzer
		restored, gen, err = e.ckptStore.Restore(sh.id)
		switch {
		case err == nil:
			st.devCfg = restored.Config()
			st.analyzers, _, err = core.SplitAnalyzer(restored, e.parts)
			if err != nil {
				return nil, gen, err
			}
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Cold start: nothing restorable, build from config.
		default:
			return nil, gen, err
		}
	}
	if st.analyzers == nil {
		var sub core.Config
		if sub, err = e.an.Split(e.parts); err != nil {
			return nil, gen, err
		}
		st.analyzers = make([]*core.Analyzer, e.parts)
		for k := range st.analyzers {
			if st.analyzers[k], err = core.NewAnalyzer(sub); err != nil {
				return nil, gen, err
			}
		}
	}
	mc := withWindow(e.mon)
	sink := sh.routeTx
	if len(st.analyzers) == 1 {
		a := st.analyzers[0]
		sink = func(tx monitor.Transaction) { a.Process(tx.Extents) }
	} else {
		maxReq := mc.MaxRequests
		if maxReq <= 0 {
			maxReq = monitor.DefaultMaxRequests
		}
		st.txRings = make([]*txRing, len(st.analyzers))
		for k := range st.txRings {
			st.txRings[k] = newTxRing(maxReq)
		}
	}
	if st.mon, err = monitor.New(mc, sink); err != nil {
		return nil, gen, err
	}
	return st, gen, nil
}

// Metrics returns the registry holding the engine's instruments — the
// one given with WithMetrics, or the engine's own. The HTTP layer
// serves it at /v1/metrics.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Devices lists the registered device IDs sorted by ID (a
// deterministic order regardless of registration interleaving). It
// keeps working after Stop.
func (e *Engine) Devices() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.order))
	copy(out, e.order)
	return out
}

func (e *Engine) shard(id string) (*shard, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.shards[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	return s, nil
}

// orderedShards returns the shards sorted by device ID.
func (e *Engine) orderedShards() []*shard {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*shard, len(e.order))
	for i, id := range e.order {
		out[i] = e.shards[id]
	}
	return out
}

// Submit offers one issue event to the named device. It validates the
// event, then enqueues it under the engine's backpressure policy. For
// per-event hot loops prefer resolving a Device handle once.
func (e *Engine) Submit(id string, ev blktrace.Event) error {
	s, err := e.shard(id)
	if err != nil {
		return err
	}
	return s.submit(ev)
}

// SubmitBatch offers a batch of issue events to the named device,
// taking the shard lock once for the whole batch instead of once per
// event — the ingest path for replayers and bulk producers. Every
// event is validated before anything is enqueued; an invalid event
// rejects the whole batch, identifying the offending index. Under
// backpressure the batch behaves as the equivalent sequence of Submit
// calls (DropOldest discards oldest-first; Block waits for the worker).
// Each event is copied into the queue by value and the slice is not
// retained after SubmitBatch returns: the caller may overwrite or pool
// it at once (the HTTP ingest route decodes into a pooled slice).
func (e *Engine) SubmitBatch(id string, evs []blktrace.Event) error {
	s, err := e.shard(id)
	if err != nil {
		return err
	}
	return s.submitBatch(evs)
}

// ObserveLatency feeds one completion latency (ns) to the named
// device's dynamic window. Latencies are droppable signal; unknown
// devices and backlog are silently ignored.
func (e *Engine) ObserveLatency(id string, ns int64) {
	if s, err := e.shard(id); err == nil {
		s.observeLatency(ns)
	}
}

// Snapshot exports the named device's synopsis at minSupport. The
// worker only contributes an O(live entries) capture; sorting happens
// on the calling goroutine, and repeated queries while the device's
// synopsis is unchanged are served from an epoch-gated cache without
// touching the worker at all. Callers must treat the returned snapshot
// as read-only — concurrent queries at the same epoch share it.
func (e *Engine) Snapshot(id string, minSupport uint32) (core.Snapshot, error) {
	s, err := e.shard(id)
	if err != nil {
		return core.Snapshot{}, err
	}
	return s.snapshot(minSupport)
}

// Epoch returns the named device's synopsis epoch: a counter that
// advances whenever the device's synopsis changes (a processed batch,
// a stop flush, a supervised restart). Two queries at the same epoch
// observe identical synopsis state, which is what lets HTTP handlers
// answer If-None-Match revalidations without recomputing — or even
// re-asking — anything.
func (e *Engine) Epoch(id string) (uint64, error) {
	s, err := e.shard(id)
	if err != nil {
		return 0, err
	}
	return s.epoch.Load(), nil
}

// MergedEpoch returns the merged cursor: a counter that advances on
// every change of the fleet-wide view (see fleetWake), and the device
// count. The counter never repeats, so an unchanged pair means an
// unchanged view — the fleet-level analogue of Epoch.
func (e *Engine) MergedEpoch() (counter uint64, devices int) {
	return e.fleetEpoch.Load(), int(e.devices.Load())
}

// State is the bounded read behind a snapshot page, a rules page and a
// watch delivery: the number of pairs at minSupport, the top best of
// them, and the top highest-ranked rules (the parts named by want; see
// core.State), all derived from one capture and returned with the
// device epoch read before it. The read is one linear pass over the
// capture on the calling goroutine — it never sorts the table — and
// reads at an unchanged epoch share the capture, whatever their
// parameters.
func (e *Engine) State(id string, minSupport uint32, minConfidence float64, top int, want core.Want) (core.State, uint64, error) {
	s, err := e.shard(id)
	if err != nil {
		return core.State{}, 0, err
	}
	var st core.State
	epoch, err := s.withCapture(func(g core.RawGroup) {
		st = g.State(minSupport, minConfidence, top, want)
	})
	return st, epoch, err
}

// WriteSnapshot serialises the named device's live synopsis (the
// core.Analyzer.WriteTo format) without stopping ingestion: the binary
// encoding and the writes to w run on the calling goroutine against a
// capture, not on the device worker.
func (e *Engine) WriteSnapshot(id string, w io.Writer) error {
	s, err := e.shard(id)
	if err != nil {
		return err
	}
	return s.capture(func(g core.RawGroup) error {
		_, err := s.encoding(g).WriteTo(w)
		return err
	})
}

// MergedSnapshot merges every device's synopsis into one fleet-wide
// sorted export at minSupport, equal to core.MergeSnapshots over the
// devices' exports. Each device contributes a consistent point-in-time
// capture; the merge is not a cross-device atomic snapshot — ingestion
// continues while later devices are captured. Failed devices are
// skipped rather than poisoning the fleet view: their workers are gone,
// but the healthy devices' correlations are still worth serving (the
// omission is visible on /v1/healthz and in Stats).
// Only the devices whose exports changed since the last merged read of
// any kind move the engine's merge index, and the merged
// export is the union's live entries sorted, so a fleet read after one
// device changed costs a linear pass over that device's export and a
// sort of the union, not a merge of the fleet. minSupport is
// applied to the merged view (a suffix cut of the count-sorted export)
// rather than to each device before merging: a fleet-wide counter that
// crosses the threshold is reported even when no single device's
// counter does. As with Snapshot, callers must treat the result as
// read-only.
func (e *Engine) MergedSnapshot(minSupport uint32) (core.Snapshot, error) {
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	if err := e.refreshMergedLocked(); err != nil {
		return core.Snapshot{}, err
	}
	return e.mergeIdx.Snapshot().FilterSupport(minSupport), nil
}

// refreshMergedLocked syncs mergeIdx to the live devices' exports if
// the merged cursor moved since the last sync; a failed device drops
// out (see MergedSnapshot). Caller holds mergeMu.
func (e *Engine) refreshMergedLocked() error {
	cur, n := e.MergedEpoch() // before the exports: under-claims, never over-claims
	if cur == e.mergeEpoch {
		return nil
	}
	shards := e.orderedShards()
	var err error
	e.mergeIdx.Sync(func(yield func(string, core.Snapshot) bool) {
		for _, s := range shards {
			snap, _, xerr := s.export()
			if s.failed.Load() {
				continue // read after the export, which fails only after this is set
			}
			if xerr != nil {
				err = xerr
				return
			}
			if !yield(s.id, snap) {
				return
			}
		}
	})
	if err != nil {
		return err // the cursor stays behind: the next read syncs every device again
	}
	e.mergeEpoch, e.mergeDevices = cur, n
	return nil
}

// MergedState is State for the fleet-wide view, returned with the
// merged cursor (counter, devices) read before it: one pass over the merge
// index's pair union, counting, keeping the top best in a bounded heap
// and resolving rule antecedents through its item hash, so a top-K read
// allocates O(K) however large the fleet's tables are, beside the
// patched export of each device that changed since the last merged
// read; the merged union itself is never sorted on the way. Pairs and
// rules are read under one hold of the merge lock, so they describe the
// same merge. Rules carry the devices' counters summed per key, so
// their confidences are estimates over the sums.
func (e *Engine) MergedState(minSupport uint32, minConfidence float64, top int, want core.Want) (st core.State, counter uint64, devices int, err error) {
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	if err := e.refreshMergedLocked(); err != nil {
		return core.State{}, 0, 0, err
	}
	return e.mergeIdx.State(minSupport, minConfidence, top, want), e.mergeEpoch, e.mergeDevices, nil
}

// DeviceStats is one device's health and processing counters.
type DeviceStats struct {
	Device   string
	Monitor  monitor.Stats
	Analyzer core.Stats
	// Window is the monitor's current rolling transaction window.
	Window time.Duration
	// ItemIndex and PairIndex report the synopsis tables'
	// open-addressing index shape and probe behaviour (mean probe
	// length = Probes/Lookups) — the signal that the hash index, not
	// the tiers, is degrading.
	ItemIndex core.IndexStats
	PairIndex core.IndexStats
	// Dropped counts events discarded by the drop-oldest policy.
	Dropped uint64
	// Lag is the number of events queued (ring + reorder buffer) but
	// not yet processed.
	Lag int
	// Partitions is the device's sub-shard count (1 = unpartitioned).
	// At P > 1 the Analyzer and index stats are merged views over the
	// P partition slices (counters summed, MaxProbe the worst slice).
	Partitions int
	// Health is the device's supervision state (restarts, panics,
	// checkpoint recency). For a Failed device the Monitor/Analyzer/
	// Window fields are zero — the worker that owned them is gone —
	// while Health, Dropped, and Lag remain accurate.
	Health DeviceHealth
}

// Stats is the engine-wide view: one entry per device, sorted by
// device ID.
type Stats struct {
	Devices []DeviceStats
}

// TotalDropped sums the per-device drop counters.
func (s Stats) TotalDropped() uint64 {
	var n uint64
	for _, d := range s.Devices {
		n += d.Dropped
	}
	return n
}

// TotalMonitor sums the per-device monitor counters.
func (s Stats) TotalMonitor() monitor.Stats {
	var t monitor.Stats
	for _, d := range s.Devices {
		t.Events += d.Monitor.Events
		t.Filtered += d.Monitor.Filtered
		t.Duplicates += d.Monitor.Duplicates
		t.Transactions += d.Monitor.Transactions
		t.CapSplits += d.Monitor.CapSplits
		t.OutOfOrder += d.Monitor.OutOfOrder
	}
	return t
}

// TotalAnalyzer sums the per-device analyzer counters.
func (s Stats) TotalAnalyzer() core.Stats {
	var t core.Stats
	for _, d := range s.Devices {
		t = t.Add(d.Analyzer)
	}
	return t
}

// DeviceStatsFor returns one device's counters.
func (e *Engine) DeviceStatsFor(id string) (DeviceStats, error) {
	s, err := e.shard(id)
	if err != nil {
		return DeviceStats{}, err
	}
	return e.statsOf(s)
}

// Stats returns every device's counters sorted by device ID.
func (e *Engine) Stats() (Stats, error) {
	shards := e.orderedShards()
	st := Stats{Devices: make([]DeviceStats, 0, len(shards))}
	for _, s := range shards {
		ds, err := e.statsOf(s)
		if err != nil {
			return Stats{}, err
		}
		st.Devices = append(st.Devices, ds)
	}
	return st, nil
}

func (e *Engine) statsOf(s *shard) (DeviceStats, error) {
	ds := DeviceStats{Device: s.id, Health: s.health(), Partitions: s.parts}
	r, err := s.ask(query{kind: queryStats})
	// Read the producer-side counters after the reply: the router
	// answers only after draining the ring and flushing the reorder
	// buffer, so a lag read before the round trip could count events
	// the reply reports analysed.
	ds.Dropped, ds.Lag = s.counters()
	if err != nil {
		if errors.Is(err, ErrDeviceUnavailable) {
			// A failed device still reports its health and producer-side
			// counters; the worker-owned stats died with the worker.
			return ds, nil
		}
		return DeviceStats{}, err
	}
	ds.Monitor, ds.Analyzer, ds.Window = r.monStats, r.anStats, r.window
	ds.ItemIndex, ds.PairIndex = r.itemIdx, r.pairIdx
	return ds, nil
}

// DeviceHealthStatus pairs a device ID with its supervision state and
// producer-side counters.
type DeviceHealthStatus struct {
	Device string
	DeviceHealth
	// Dropped and Lag mirror DeviceStats; they are readable without
	// the worker, so health stays observable during restarts.
	Dropped uint64
	Lag     int
}

// Health reports every device's supervision state sorted by device
// ID. Unlike Stats it never does a worker round trip, so it stays
// fast and responsive while devices are restarting, failed, or
// backlogged — the property a health endpoint needs.
func (e *Engine) Health() []DeviceHealthStatus {
	shards := e.orderedShards()
	out := make([]DeviceHealthStatus, 0, len(shards))
	for _, s := range shards {
		st := DeviceHealthStatus{Device: s.id, DeviceHealth: s.health()}
		st.Dropped, st.Lag = s.counters()
		out = append(out, st)
	}
	return out
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stopped
}

// Dropped reports the named device's drop counter. Unlike the query
// methods it keeps working after Stop.
func (e *Engine) Dropped(id string) (uint64, error) {
	s, err := e.shard(id)
	if err != nil {
		return 0, err
	}
	n, _ := s.counters()
	return n, nil
}

// Stop shuts every device down: no new events or queries are accepted,
// queued events are drained into the synopses, open transactions are
// flushed, a final checkpoint is written, and the workers exit. Stop is
// idempotent, safe to call concurrently, and returns once every
// goroutine of every device — checkpoint loops included — has exited.
func (e *Engine) Stop() { e.stopWithin(0) }

// StopTimeout is Stop with a drain deadline: devices get up to d to
// drain their queued events normally; past the deadline the remaining
// queued (and reorder-buffered) events are discarded — counted in the
// per-device drop metric — instead of analyzed. Everything after the
// drain still happens in full: open transactions are flushed and each
// device writes its final checkpoint, so a bounded shutdown loses only
// unprocessed backlog, never the synopsis. Returns true when the
// deadline forced at least one device to discard. d <= 0 means no
// deadline (identical to Stop).
func (e *Engine) StopTimeout(d time.Duration) (forced bool) {
	return e.stopWithin(d)
}

func (e *Engine) stopWithin(d time.Duration) (forced bool) {
	e.mu.Lock()
	e.stopped = true
	shards := make([]*shard, len(e.order))
	for i, id := range e.order {
		shards[i] = e.shards[id]
	}
	e.mu.Unlock()
	for _, s := range shards {
		s.requestStop()
	}
	if d > 0 {
		all := make(chan struct{})
		go func() {
			for _, s := range shards {
				s.wait()
			}
			close(all)
		}()
		t := time.NewTimer(d)
		select {
		case <-all:
			t.Stop()
		case <-t.C:
			forced = true
			for _, s := range shards {
				s.forceDiscard()
			}
			<-all
		}
	} else {
		for _, s := range shards {
			s.wait()
		}
	}
	// Every shard has flushed and ended its own waiters; end the
	// fleet-level ones too so merged watchers see a terminal event.
	e.fleet.Wake(ErrStopped)
	return forced
}

// Device is a registered device's ingest handle: hot loops resolve it
// once and submit without a per-event fleet-map lookup.
type Device struct {
	s *shard
}

// Device resolves an ingest handle for the named device.
func (e *Engine) Device(id string) (*Device, error) {
	s, err := e.shard(id)
	if err != nil {
		return nil, err
	}
	return &Device{s: s}, nil
}

// ID returns the device's identifier.
func (d *Device) ID() string { return d.s.id }

// Submit validates and enqueues one issue event, as Engine.Submit.
func (d *Device) Submit(ev blktrace.Event) error {
	return d.s.submit(ev)
}

// SubmitBatch validates and enqueues a batch of issue events under a
// single lock acquisition, as Engine.SubmitBatch; the slice is not
// retained after it returns.
func (d *Device) SubmitBatch(evs []blktrace.Event) error {
	return d.s.submitBatch(evs)
}

// ObserveLatency feeds one completion latency (ns), as
// Engine.ObserveLatency.
func (d *Device) ObserveLatency(ns int64) { d.s.observeLatency(ns) }

// Lag returns the device's current queue depth — events enqueued but
// not yet analyzed. Feeders that want throughput without drops pace on
// this instead of guessing.
func (d *Device) Lag() int {
	_, lag := d.s.counters()
	return lag
}

// Dropped returns how many events the device has shed under the
// DropOldest policy since registration.
func (d *Device) Dropped() uint64 {
	n, _ := d.s.counters()
	return n
}
