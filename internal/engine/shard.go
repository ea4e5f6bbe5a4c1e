package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

type queryKind int

// The router answers only two query kinds. queryCapture is the whole
// read path: it copies the synopsis into the asker's RawGroup (one
// RawSnapshot per partition) in O(live entries) and returns; sorting,
// rule extraction, JSON, merging, and checkpoint encoding all happen
// on the asking goroutine against the immutable copies, so readers
// never stall ingest for the duration of a serialization.
const (
	queryCapture queryKind = iota
	queryStats
)

type query struct {
	kind queryKind
	// raws receives the capture for queryCapture: one RawSnapshot per
	// partition. Owned by the asker, written by the router before the
	// reply is sent (at P>1 once the partition workers are quiescent).
	raws  core.RawGroup
	reply chan queryReply
}

type queryReply struct {
	monStats monitor.Stats
	anStats  core.Stats
	window   time.Duration
	itemIdx  core.IndexStats
	pairIdx  core.IndexStats
	// err is set when the query could not be served at all: the router
	// panicked while answering it, or the device failed permanently.
	err error
}

// errRunBroken is the router's internal signal that a partition worker
// died mid-run: the query being answered goes back to the inflight
// queue (the restarted run re-answers it) and the router returns to
// the supervisor.
var errRunBroken = errors.New("engine: partition worker died")

// deviceState is the router-side state of one run of a device: the
// monitor, the P analyzers, the reorder buffer, and the per-partition
// transaction rings. The supervisor rebuilds it from the freshest
// checkpoint on every restart, so a dying run can never leak corrupt
// state — or stale ring tokens — into the next one.
type deviceState struct {
	// The router owns the monitor (transaction assembly is inherently
	// sequential — it is a stateful scan of the timestamp order) and the
	// monitor's sink decides where a completed transaction goes: with
	// one analyzer the router applies it inline and there are no rings
	// and no run; with P > 1 partition-local analyzers routeTx pushes it
	// down txRings (one per analyzer) to the workers of run, each of
	// which applies its partition's slice. Workers only apply: the
	// router reads the analyzers in place once the rings have drained
	// (quiesce).
	mon       *monitor.Monitor
	analyzers []*core.Analyzer
	txRings   []*txRing
	run       *partRun

	// devCfg is the device-level analyzer config — what a combined
	// checkpoint of the P partitions is encoded (and re-split) under.
	devCfg core.Config

	rb       *reorderBuffer
	lastLate uint64 // rb.late already mirrored into metrics
}

// txSlot is one token of a partition's transaction ring: a transaction
// to apply, or stop, which travels in-band so the worker exits strictly
// after applying everything routed before it.
type txSlot struct {
	stop    bool
	extents []blktrace.Extent // preallocated, len set per transaction
}

// txRing is a bounded SPSC ring from the router to one partition
// worker. The router is the only writer of enq, the worker the only
// writer of deq; slot contents are published by the enq store and
// released by the deq store, and deq == enq means the worker has
// applied everything routed to it.
type txRing struct {
	slots   []txSlot
	mask    uint64
	enq     atomic.Uint64
	deq     atomic.Uint64
	wake    wakeFlag // worker sleeps here
	notFull wakeFlag // router, the one waiter, sleeps here until the worker dequeues
}

// txRingSize bounds how far the router can run ahead of one partition
// worker, in transactions.
const txRingSize = 256

func newTxRing(maxTx int) *txRing {
	r := &txRing{
		slots: make([]txSlot, txRingSize),
		mask:  txRingSize - 1,
	}
	for i := range r.slots {
		r.slots[i].extents = make([]blktrace.Extent, 0, maxTx)
	}
	r.wake.init()
	r.notFull.init()
	return r
}

// partRun is the lifecycle of one partitioned run: P workers plus the
// router. The first panic anywhere breaks the run (closing broken
// releases everyone mid-wait); the supervisor then rebuilds state and
// starts a fresh run.
type partRun struct {
	wg     sync.WaitGroup
	death  chan any
	broken chan struct{}
	once   sync.Once
}

func newPartRun() *partRun {
	return &partRun{death: make(chan any, 1), broken: make(chan struct{})}
}

func (r *partRun) fail(v any) {
	select {
	case r.death <- v:
	default:
	}
	r.abort()
}

func (r *partRun) abort() { r.once.Do(func() { close(r.broken) }) }

func (r *partRun) isBroken() bool {
	select {
	case <-r.broken:
		return true
	default:
		return false
	}
}

func (r *partRun) cause() any {
	select {
	case v := <-r.death:
		return v
	default:
		return errRunBroken
	}
}

// shard is one device's slice of the engine: a lock-free MPSC ingest
// ring drained by a router goroutine that owns the monitor and either
// applies completed transactions to the synopsis itself or — at P>1 —
// routes them to P partition workers, each applying its 1/P of the
// synopsis (see core.PartitionOf). Everything else — reads, the epoch,
// checkpoints — is the router's at every P. Producers never take a lock
// on the event path: submit is a CAS into the ring plus an eventcount
// wake, and the drop/lag counters are atomics, so metrics scrapes never
// serialize against ingest either.
//
// The router and workers run under a supervisor (see supervise): a
// panic anywhere in the run is recovered, the freshest checkpoint is
// restored, and a fresh run starts with backoff while producers keep
// enqueuing into the ring.
type shard struct {
	id      string
	parts   int
	policy  Backpressure
	metrics *shardMetrics

	super   SupervisorConfig
	ckpt    *checkpoint.Store
	rebuild func() (*deviceState, checkpoint.Generation, error)
	hook    func(device string, ev blktrace.Event)

	// Lock-free ingest: the event ring, the router's eventcount, and
	// the gate Block-policy producers park on.
	ring    *evRing
	wake    wakeFlag
	notFull gate

	stopping atomic.Bool
	failed   atomic.Bool
	// discard, set past a StopTimeout deadline, makes the stopping
	// drain count remaining queued events as dropped instead of
	// analyzing them; the flush and final checkpoint still run.
	discard atomic.Bool

	// st is owned by the router goroutine; the supervisor swaps it only
	// between runs.
	st *deviceState

	// txCount counts transactions the router routed to partition
	// workers since the current state was installed. Partition analyzers
	// never count transactions (the transaction is shared across them);
	// device-level stats and checkpoints add this on top of the summed
	// partition stats. A lone analyzer fed inline counts its own, and
	// this stays zero. Reset on restore — the restored state already
	// carries its own total.
	txCount atomic.Uint64

	// rbDepth mirrors the reorder buffer's depth for the lock-free lag
	// counter (the buffer itself is router-owned).
	rbDepth atomic.Int64

	// Cold-path queues: queries and sampled completion latencies. Low
	// rate, never on the event path.
	qMu      sync.Mutex
	queries  []query
	lats     []int64
	inflight []query // claimed by the router; supervisor requeues on panic

	// Supervision state, guarded by mu.
	mu           sync.Mutex
	state        HealthState
	panics       uint64
	restarts     uint64
	consecutive  int
	lastRestart  time.Time
	sinceRestart uint64
	ckptGen      uint64
	ckptTime     time.Time
	devCfg       core.Config

	stopCh chan struct{} // closed by requestStop: interrupts backoff, parked producers, the checkpoint loop
	done   chan struct{} // closed when the supervisor goroutine exits

	// ckptLoop is the device's checkpoint loop (see checkpointLoop);
	// wait joins it. ckptMu serialises the device's saves, and
	// ckptClosed, set under it by the final flush of a stop, turns away
	// any periodic save that has not started yet: the store hands out a
	// generation's sequence when its save starts, so a periodic save
	// starting after the final flush would commit an older capture as
	// the newest generation.
	ckptLoop   sync.WaitGroup
	ckptMu     sync.Mutex
	ckptClosed bool

	// notify wakes epoch waiters (see watch.go); onEpoch forwards each
	// advance to the engine's fleet-level notifier.
	notify  *EpochNotifier
	onEpoch func()

	// epoch counts synopsis state changes. The router bumps it at every
	// P whenever it released events into analysis: at P>1 possibly
	// before the workers have applied them, but a read waits for that
	// (quiesce), so an epoch never over-claims what its capture holds.
	epoch atomic.Uint64

	groupPool sync.Pool

	// Epoch-gated read cache; see withCapture and export. snapGroup is
	// the one capture of epoch snapEpoch (snapValid), shared by bounded
	// reads and the export. snapCached is the full (support-0) sorted
	// export derived from it on first demand (snapSorted), which the
	// snapshot reads and the engine's merged view share — any requested
	// support is a suffix cut of it (Snapshot.FilterSupport), so reads
	// at different supports never thrash the cache. snapExport derives each export from the one
	// before it, patching in what the capture says moved since, at
	// every P.
	snapMu     sync.Mutex
	snapGroup  core.RawGroup
	snapEpoch  uint64
	snapValid  bool
	snapExport core.Exporter
	snapCached core.Snapshot
	snapSorted bool
}

func newShard(id string, queueSize, parts int, policy Backpressure) *shard {
	s := &shard{
		id:     id,
		parts:  parts,
		policy: policy,
		ring:   newEvRing(queueSize),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
		notify: NewEpochNotifier(),
	}
	s.wake.init()
	s.notFull.init()
	return s
}

// newGroup allocates a capture group with one RawSnapshot per
// partition.
func (s *shard) newGroup() core.RawGroup {
	g := make(core.RawGroup, s.parts)
	for i := range g {
		g[i] = new(core.RawSnapshot)
	}
	return g
}

func (s *shard) getGroup() core.RawGroup {
	if v := s.groupPool.Get(); v != nil {
		return v.(core.RawGroup)
	}
	return s.newGroup()
}

func (s *shard) putGroup(g core.RawGroup) { s.groupPool.Put(g) }

// runOnce executes one run of the device until a clean stop (returns
// nil) or a panic anywhere in the run (returns the recovered value).
// The recover is the supervision boundary: one device's bug must never
// tear down the process or its sibling devices.
func (s *shard) runOnce() (panicked any) {
	st := s.st
	var run *partRun // stays nil for one analyzer, fed inline: no workers to start
	if len(st.txRings) > 0 {
		run = newPartRun()
		st.run = run
		for k := range st.txRings {
			run.wg.Add(1)
			go partWorker(k, st, run)
		}
	}
	v := func() (v any) {
		defer func() { v = recover() }()
		s.routerLoop(st, run)
		return nil
	}()
	if run == nil {
		return v
	}
	run.abort()
	run.wg.Wait()
	if v == nil || v == errRunBroken {
		if c := run.cause(); c != errRunBroken || v == errRunBroken {
			v = c
		}
	}
	return v
}

// routerLoop is the device's sequential spine: drain the ingest ring
// through the reorder buffer into the monitor — whose sink applies each
// transaction to the synopsis or routes it to the partition workers of
// run — bump the epoch, and answer queries in-band. run is nil when
// there are no workers. It returns on clean stop or when the run breaks
// (worker death); its own panics propagate to runOnce's recover.
func (s *shard) routerLoop(st *deviceState, run *partRun) {
	var batch [popBatchSize]ringItem
	var lats []int64
	// released counts the events the current iteration let into analysis.
	// Keep it on the router's stack (emit does not escape), not in
	// deviceState: a store per event into that small heap object shares a
	// cache line with whatever the allocator put beside it — another
	// device's state, read per event by that device's router — which
	// costs ingest-saturate 7 % of its events/s.
	var released int
	// emit is the one point where the router releases an event, so it is
	// the one point that honours a forced drain: discard is loaded fresh
	// per event (never a value sampled before a blocking analysis), and
	// past a StopTimeout deadline whatever is still queued or
	// reorder-buffered is counted as dropped instead of analyzed.
	emit := func(ev blktrace.Event, ts int64) {
		if s.discard.Load() {
			s.metrics.dropped.Inc()
			return
		}
		s.processEvent(st, ev, ts)
		released++
	}
	for {
		if run != nil && run.isBroken() {
			return
		}
		stopping := s.stopping.Load()
		s.claimWork(&lats)
		for _, ns := range lats {
			st.mon.ObserveLatency(ns)
		}
		released = 0
		if s.drain(st, batch[:], emit) > 0 && s.policy == Block {
			s.notFull.open()
		}
		// Flush the reorder buffer whenever the router has caught up
		// with the ring (it is about to go idle — holding events would
		// only add latency), before answering queries (read-your-writes
		// for snapshots), and on stop.
		if stopping || len(s.inflight) > 0 || s.ring.empty() {
			st.rb.flush(emit)
		}
		s.mirrorReorder(st)
		if released > 0 {
			s.bumpEpoch()
			s.noteProcessed(released)
		}
		if run != nil && run.isBroken() {
			return
		}
		if len(s.inflight) > 0 {
			if err := s.answerInflight(st, run); err != nil {
				return
			}
		}
		if stopping {
			_ = s.finishStop(st, run, batch[:], emit)
			return
		}
		if s.ring.empty() && !s.havePending() {
			s.wake.prepare()
			if !s.ring.empty() || s.havePending() || s.stopping.Load() || (run != nil && run.isBroken()) {
				s.wake.cancel()
				continue
			}
			if run != nil {
				s.wake.sleep(s.stopCh, run.broken)
			} else {
				s.wake.sleep(s.stopCh, nil)
			}
		}
	}
}

// popBatchSize is how many events the router claims from the ring at
// once: one CAS per batch instead of one per event.
const popBatchSize = 64

// drain moves every event published in the ring into the reorder
// buffer, claiming them a batch at a time into buf, and returns how
// many it moved. A batch shorter than buf ended at a slot not yet
// published, so drain stops there rather than probe that slot again
// while its producer writes it.
func (s *shard) drain(st *deviceState, buf []ringItem, emit func(blktrace.Event, int64)) int {
	drained := 0
	for {
		n := s.ring.popBatch(buf)
		drained += n
		for _, it := range buf[:n] {
			st.rb.push(it.ev, it.ts, emit)
		}
		if n < len(buf) {
			return drained
		}
	}
}

// processEvent releases one reordered event into analysis: the process
// hook, then the monitor (whose sink applies or routes the resulting
// transactions), then the sampled submit→analyze latency observation.
func (s *shard) processEvent(st *deviceState, ev blktrace.Event, ts int64) {
	if s.hook != nil {
		s.hook(s.id, ev)
	}
	// Events were validated in Submit; the monitor re-validates and
	// cannot fail here.
	_ = st.mon.HandleEvent(ev)
	if ts != 0 {
		s.metrics.observeSubmitLatency(ts)
	}
}

// routeTx is the monitor sink at P>1: count the transaction and push
// its extents, in the monitor's order, to every partition that owns at
// least one of them (a partition that owns none owns none of its pairs
// either).
func (s *shard) routeTx(tx monitor.Transaction) {
	st := s.st
	run := st.run
	if run.isBroken() {
		return
	}
	s.txCount.Add(1)
	var mask uint64
	for _, e := range tx.Extents {
		mask |= 1 << uint(core.PartitionOf(e, len(st.txRings)))
	}
	for k, r := range st.txRings {
		if mask&(1<<uint(k)) == 0 {
			continue
		}
		if !s.txPush(r, run, false, tx.Extents) {
			return
		}
	}
}

// txPush publishes one token into a partition's SPSC ring, sleeping on
// the ring's notFull eventcount when it is full. Returns false when the
// run broke while waiting — the caller abandons the fan-out.
func (s *shard) txPush(r *txRing, run *partRun, stop bool, extents []blktrace.Extent) bool {
	for {
		pos := r.enq.Load()
		if pos-r.deq.Load() < uint64(len(r.slots)) {
			slot := &r.slots[pos&r.mask]
			slot.stop = stop
			slot.extents = append(slot.extents[:0], extents...)
			r.enq.Store(pos + 1)
			r.wake.wake()
			return true
		}
		r.notFull.prepare()
		if pos-r.deq.Load() < uint64(len(r.slots)) {
			r.notFull.cancel()
			continue
		}
		if run.isBroken() {
			r.notFull.cancel()
			return false
		}
		r.notFull.sleep(run.broken, nil)
		if run.isBroken() {
			return false
		}
	}
}

// partWorker applies partition k's slice of each transaction routed
// down its ring, until a stop token. Applying is all it does: the
// router reads the analyzer once the ring has drained (see quiesce),
// and the router bumps the epoch.
func partWorker(k int, st *deviceState, run *partRun) {
	defer run.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			run.fail(v)
		}
	}()
	r, a, parts := st.txRings[k], st.analyzers[k], len(st.analyzers)
	for {
		if run.isBroken() {
			return
		}
		pos := r.deq.Load()
		if pos != r.enq.Load() {
			slot := &r.slots[pos&r.mask]
			if slot.stop {
				r.deq.Store(pos + 1)
				return
			}
			a.ProcessPartition(slot.extents, k, parts)
			r.deq.Store(pos + 1)
			r.notFull.wake()
			continue
		}
		r.wake.prepare()
		if r.deq.Load() != r.enq.Load() || run.isBroken() {
			r.wake.cancel()
			continue
		}
		r.wake.sleep(run.broken, nil)
	}
}

// claimWork moves pending queries and latencies from the producer-side
// queues to the router under the cold-path mutex.
func (s *shard) claimWork(lats *[]int64) {
	s.qMu.Lock()
	if len(s.queries) > 0 {
		s.inflight = append(s.inflight, s.queries...)
		s.queries = s.queries[:0]
	}
	*lats = append((*lats)[:0], s.lats...)
	s.lats = s.lats[:0]
	s.qMu.Unlock()
}

func (s *shard) havePending() bool {
	s.qMu.Lock()
	defer s.qMu.Unlock()
	return len(s.queries) > 0 || len(s.lats) > 0
}

// mirrorReorder publishes the router-owned reorder counters: late
// releases into the metrics counter, buffer depth into the lag atomic.
func (s *shard) mirrorReorder(st *deviceState) {
	if st.rb.late != st.lastLate {
		s.metrics.reorderLate.Add(st.rb.late - st.lastLate)
		st.lastLate = st.rb.late
	}
	s.rbDepth.Store(int64(st.rb.len()))
}

// finishStop drains the last claimed-but-unpublished events, flushes
// the open transaction, stops the partition workers, writes the final
// checkpoint, and answers the remaining queries against the flushed
// state.
func (s *shard) finishStop(st *deviceState, run *partRun, buf []ringItem, emit func(blktrace.Event, int64)) error {
	for !s.ring.empty() {
		if s.drain(st, buf, emit) == 0 {
			runtime.Gosched() // a producer claimed the slot; it will publish
		}
	}
	// Past the drain deadline emit drops (and counts) instead of
	// analyzing, so a slow analysis path cannot extend the shutdown
	// unboundedly.
	st.rb.flush(emit)
	s.mirrorReorder(st)
	st.mon.Flush()
	if run != nil {
		if err := s.stopWorkers(st, run); err != nil {
			return err
		}
	}
	s.bumpEpoch()
	// Final flush: persist the drained state so a restart does not pay
	// the cold-start transient. An error is recorded in the checkpoint
	// metrics; shutdown proceeds regardless.
	_ = s.commitFinalCheckpoint(st)
	var none []int64
	s.claimWork(&none)
	return s.answerInflight(st, nil)
}

// stopWorkers pushes a stop token down every partition ring and waits
// for the workers to drain up to it and exit.
func (s *shard) stopWorkers(st *deviceState, run *partRun) error {
	for k := range st.txRings {
		if !s.txPush(st.txRings[k], run, true, nil) {
			return errRunBroken
		}
	}
	run.wg.Wait()
	if run.isBroken() {
		return errRunBroken
	}
	return nil
}

// answerInflight answers the queries the router claimed, consuming
// them one at a time so a panic mid-answer leaves only the genuinely
// unanswered ones for the supervisor to requeue. A broken run puts the
// un-replied query back and returns errRunBroken.
func (s *shard) answerInflight(st *deviceState, run *partRun) error {
	for len(s.inflight) > 0 {
		q := s.inflight[0]
		s.inflight = s.inflight[1:]
		if err := s.answer(st, run, q); err != nil {
			s.inflight = append([]query{q}, s.inflight...)
			return err
		}
	}
	return nil
}

// answer computes one query reply from the analyzers, read in place.
// With run != nil partition workers are running, so the router first
// waits for them to apply everything routed to them (quiesce) and
// routes nothing more until the reply is sent. If the computation
// panics (corrupt synopsis state), the asker still gets a reply — a
// typed ErrDeviceUnavailable — before the panic propagates to the
// supervisor; queries must fail fast, never hang.
func (s *shard) answer(st *deviceState, run *partRun, q query) error {
	defer func() {
		if r := recover(); r != nil {
			q.reply <- queryReply{err: fmt.Errorf("%w: %q query panicked: %v", ErrDeviceUnavailable, s.id, r)}
			panic(r)
		}
	}()
	if run != nil {
		if err := s.quiesce(st, run); err != nil {
			return err
		}
	}
	var r queryReply
	switch q.kind {
	case queryCapture:
		for k, a := range st.analyzers {
			s.captureInto(a, q.raws[k])
		}
	case queryStats:
		for _, a := range st.analyzers {
			r.anStats = r.anStats.Add(a.Stats())
			r.itemIdx = sumIndexStats(r.itemIdx, a.Items().IndexStats())
			r.pairIdx = sumIndexStats(r.pairIdx, a.Pairs().IndexStats())
		}
		r.anStats.Transactions += s.txCount.Load()
		r.monStats = st.mon.Stats()
		r.window = st.mon.WindowDuration()
	}
	q.reply <- r
	return nil
}

// quiesce waits until every partition worker has applied everything
// routed to it (deq == enq on every ring), sleeping on each ring's
// notFull eventcount, which the worker wakes after every dequeue. The
// worker's deq store after applying and the router's next enq store are
// the hand-offs of the analyzers between them. A broken run returns
// errRunBroken: a worker died, and the query goes back to the queue.
func (s *shard) quiesce(st *deviceState, run *partRun) error {
	for _, r := range st.txRings {
		for r.deq.Load() != r.enq.Load() {
			r.notFull.prepare()
			if r.deq.Load() != r.enq.Load() {
				r.notFull.sleep(run.broken, nil)
			} else {
				r.notFull.cancel()
			}
			if run.isBroken() {
				return errRunBroken
			}
		}
	}
	return nil
}

// captureInto copies one analyzer's state into a reader's RawSnapshot.
// The capture is the only read-side work charged to the router; its
// duration is the ingest stall a reader causes, so it is what the
// capture-seconds histogram measures.
func (s *shard) captureInto(a *core.Analyzer, raw *core.RawSnapshot) {
	start := time.Now()
	a.CaptureSnapshot(raw)
	s.metrics.captureSeconds.Observe(time.Since(start).Seconds())
}

// sumIndexStats combines per-partition index telemetry: counters sum,
// occupancy sums, and MaxProbe takes the worst partition (the signal
// it exists to surface).
func sumIndexStats(a, b core.IndexStats) core.IndexStats {
	a.Lookups += b.Lookups
	a.Probes += b.Probes
	a.Grows += b.Grows
	a.Slots += b.Slots
	a.Used += b.Used
	if b.MaxProbe > a.MaxProbe {
		a.MaxProbe = b.MaxProbe
	}
	return a
}

// accepting reports whether the shard can take new events: ErrStopped
// after Stop, ErrDeviceUnavailable once the supervisor has declared
// the device failed (its workers are gone, so accepting an event would
// promise processing that can never happen — and a Block submitter
// would hang forever). Two atomic loads; no lock.
func (s *shard) accepting() error {
	if s.stopping.Load() {
		return ErrStopped
	}
	if s.failed.Load() {
		return fmt.Errorf("%w: %q", ErrDeviceUnavailable, s.id)
	}
	return nil
}

// submit validates and enqueues one event: a CAS into the ring plus an
// eventcount wake on the fast path. When the ring is full the
// configured backpressure policy decides: DropOldest evicts the oldest
// queued event (counted) so the producer never stalls, Block waits for
// the router to free space.
func (s *shard) submit(ev blktrace.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	if err := s.accepting(); err != nil {
		return err
	}
	if !s.ring.tryPush(ev) {
		if err := s.waitPush(ev); err != nil {
			return err
		}
	}
	s.metrics.submitted.Inc()
	s.wake.wake()
	return nil
}

// waitPush admits one event into a full ring per the backpressure
// policy. It does not account the submit — callers do, so batches can
// amortize the accounting.
func (s *shard) waitPush(ev blktrace.Event) error {
	if s.policy == DropOldest {
		for {
			if s.ring.dropOldest() {
				s.metrics.dropped.Inc()
				s.metrics.reorderLost.Inc()
			}
			if s.ring.tryPush(ev) {
				return nil
			}
			if err := s.accepting(); err != nil {
				return err
			}
			// Transient: the oldest slot is mid-publish by a slow
			// producer; let it finish.
			s.wake.wake()
			runtime.Gosched()
		}
	}
	s.metrics.blocked.Inc()
	for {
		ch := s.notFull.arm()
		if s.ring.tryPush(ev) {
			s.notFull.disarm()
			return nil
		}
		// The ring is full, so the router has a whole buffer to chew
		// on; make sure it is awake before parking.
		s.wake.wake()
		select {
		case <-ch:
		case <-s.stopCh:
		}
		s.notFull.disarm()
		if err := s.accepting(); err != nil {
			return err
		}
	}
}

// submitBatch validates a batch of events, rejecting all of them for
// the first invalid one, and enqueues them. Backpressure applies per
// event exactly as in submit; on ErrStopped or
// ErrDeviceUnavailable mid-batch the events enqueued so far remain
// queued and are drained by the stopping router.
func (s *shard) submitBatch(evs []blktrace.Event) error {
	if len(evs) == 0 {
		return nil
	}
	for i := range evs {
		if err := evs[i].Validate(); err != nil {
			return fmt.Errorf("engine: batch event %d: %w", i, err)
		}
	}
	if err := s.accepting(); err != nil {
		return err
	}
	n := 0
	var err error
	for _, ev := range evs {
		if !s.ring.tryPush(ev) {
			if err = s.waitPush(ev); err != nil {
				break
			}
		}
		n++
	}
	if n > 0 {
		s.metrics.submitted.Add(uint64(n))
		s.wake.wake()
	}
	s.metrics.batches.Inc()
	s.metrics.batchSize.Observe(float64(len(evs)))
	return err
}

// observeLatency enqueues one completion latency. Latencies are
// droppable signal (they only steer the dynamic window), so when the
// router is far behind — or gone — they are silently discarded rather
// than queued without bound.
func (s *shard) observeLatency(ns int64) {
	if s.accepting() != nil {
		return
	}
	s.qMu.Lock()
	if len(s.lats) < s.ring.capacity() {
		s.lats = append(s.lats, ns)
	}
	s.qMu.Unlock()
	s.wake.wake()
}

// ask posts a query to the router and waits for the reply. Failed
// devices answer immediately with ErrDeviceUnavailable — the workers
// are gone and waiting on them would hang forever. The accepting
// re-check under qMu serializes against fail(): either the query is in
// the queue before fail drains it (fail answers it), or the flag is
// visible here (rejected) — it can never land unanswered.
func (s *shard) ask(q query) (queryReply, error) {
	q.reply = make(chan queryReply, 1)
	s.qMu.Lock()
	if err := s.accepting(); err != nil {
		s.qMu.Unlock()
		return queryReply{}, err
	}
	s.queries = append(s.queries, q)
	s.qMu.Unlock()
	s.wake.wake()
	select {
	case r := <-q.reply:
		return r, r.err
	case <-s.done:
		return queryReply{}, ErrStopped
	}
}

// withCapture runs fn against the device's capture of the current
// epoch and returns the epoch it was taken for. There is exactly one
// such capture per epoch, shared under snapMu by bounded reads
// (Engine.State) and the sorted export (export, which the snapshot
// reads, the fleet sync and the engine's merged view are fed from), and
// by every repeat of them while the synopsis is unchanged, so a read
// storm against an idle device costs the router one capture in total.
// The epoch is read before the router is asked, so it may under-claim
// the capture's freshness and never over-claims it. fn runs with snapMu
// held — reads of one device serialise for the length of its pass,
// which is why only K-bounded scans belong here — and must not retain
// the group: the next epoch's capture overwrites it in place.
func (s *shard) withCapture(fn func(core.RawGroup)) (uint64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	epoch, err := s.captureLocked()
	if err != nil {
		return 0, err
	}
	fn(s.snapGroup)
	return epoch, nil
}

// captureLocked brings snapGroup up to the current epoch. Caller holds
// snapMu.
func (s *shard) captureLocked() (uint64, error) {
	epoch := s.epoch.Load()
	if s.snapValid && s.snapEpoch == epoch {
		s.metrics.snapHits.Inc()
		return epoch, nil
	}
	s.metrics.snapMisses.Inc()
	if s.snapGroup == nil {
		s.snapGroup = s.newGroup()
	}
	// The router writes into the group in place; a capture that fails
	// part-way must not be served as either epoch's.
	s.snapValid = false
	if _, err := s.ask(query{kind: queryCapture, raws: s.snapGroup}); err != nil {
		return 0, err
	}
	s.snapEpoch, s.snapValid, s.snapSorted = epoch, true, false
	return epoch, nil
}

// export serves the device's full (support-0) sorted export with the
// epoch of the capture it was derived from, derived lazily from the
// epoch's shared capture: a device that is only ever read through
// bounded requests never sorts its table. The export is cached for the
// epoch and is immutable, so the snapshot reads, the fleet sync and the
// engine's merged view share it rather than copy it.
//
// Nor does a device that is exported again and again sort its table
// each time: each partition's capture carries what moved since any
// earlier one (entry stamps and the tables' discard rings), and
// core.Exporter patches the previous export with that, in one pass at
// every P. A partition the previous export cannot be advanced for — the
// first export, the first after a restore or restart, one its discard
// rings no longer reach back from — is taken whole and sorted on its own
// (the whole device when every partition is), and the export counts as
// a rebuild. Captures taken for bounded reads in between do not break
// the chain.
func (s *shard) export() (core.Snapshot, uint64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	epoch, err := s.captureLocked()
	if err != nil {
		return core.Snapshot{}, 0, err
	}
	if !s.snapSorted {
		var patched bool
		s.snapCached, patched = s.snapExport.Export(s.snapGroup)
		if patched {
			s.metrics.exportPatched.Inc()
		} else {
			s.metrics.exportRebuilt.Inc()
		}
		s.snapSorted = true
	}
	return s.snapCached, epoch, nil
}

// snapshot is export at minSupport: the requested support is applied
// as a suffix cut (FilterSupport) of the cached support-0 export, so
// the same epoch serves every support without recomputation — exact,
// because the export is sorted by count and a support filter of a
// merged view equals the merge of support-filtered disjoint views.
func (s *shard) snapshot(minSupport uint32) (core.Snapshot, error) {
	snap, _, err := s.export()
	return snap.FilterSupport(minSupport), err
}

// capture runs fn against a fresh pooled capture group of the device's
// synopsis — the path of whoever holds a capture for an unbounded time:
// the writers (snapshot and checkpoint encoding, across slow I/O). They
// stay off the readers' shared capture so they never block it. The
// router only does the O(live entries) copies; fn runs on the calling
// goroutine.
func (s *shard) capture(fn func(core.RawGroup) error) error {
	g := s.getGroup()
	defer s.putGroup(g)
	if _, err := s.ask(query{kind: queryCapture, raws: g}); err != nil {
		return err
	}
	return fn(g)
}

// encoding returns a capture group in the form of the device's single
// synopsis file: the combined (EncodeMerged) encoding under the
// device-level config — one file per device, loadable, and
// re-splittable across a different P, however it was captured. At P=1
// nothing is shed and txCount is 0, so the bytes are what a lone
// core.Analyzer writes.
func (s *shard) encoding(g core.RawGroup) io.WriterTo {
	st := g.Stats()
	st.Transactions += s.txCount.Load()
	return mergedEncoding{g: g, cfg: s.deviceConfig(), stats: st}
}

// mergedEncoding adapts a multi-partition capture group to io.WriterTo.
type mergedEncoding struct {
	g     core.RawGroup
	cfg   core.Config
	stats core.Stats
}

func (m mergedEncoding) WriteTo(w io.Writer) (int64, error) {
	n, _, err := m.g.EncodeMerged(w, m.cfg, m.stats)
	return n, err
}

func (s *shard) deviceConfig() core.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.devCfg
}

// counters reads the producer-side counters: total events discarded by
// drop-oldest backpressure and the current ingest lag (events queued
// in the ring plus events held in the reorder buffer). Pure atomics —
// a metrics scrape never serializes against ingest — and they stay
// readable after Stop.
func (s *shard) counters() (dropped uint64, lag int) {
	return s.metrics.dropped.Value(), s.ring.size() + int(s.rbDepth.Load())
}

// requestStop asks the device to drain, flush, checkpoint, and exit.
// The caller follows it with wait.
func (s *shard) requestStop() {
	if s.stopping.CompareAndSwap(false, true) {
		close(s.stopCh)
		s.wake.wake()
		s.notFull.open()
	}
}

// wait returns once the device's goroutines have exited: the supervisor
// (and with it the router and partition workers), then the checkpoint
// loop, which may be finishing a save or be an asker the closing of done
// releases. Only meaningful after requestStop.
func (s *shard) wait() {
	<-s.done
	s.ckptLoop.Wait()
}

// forceDiscard flips the stopping drain into discard mode (see
// Engine.StopTimeout). Only meaningful after requestStop.
func (s *shard) forceDiscard() {
	s.discard.Store(true)
	s.wake.wake()
	s.notFull.open()
}
