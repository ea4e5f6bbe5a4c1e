package engine

import (
	"time"

	"daccor/internal/core"
	"daccor/internal/obs"
)

// Metric names exposed by the engine, all labeled {device="..."}.
// Producer-side instruments (submits, drops, queue depth, submit→
// analyze latency) are updated on the event path; the monitor and
// analyzer families are mirrors of the worker-owned stats structs,
// refreshed by a collect hook at scrape time so the hot path never
// pays for them.
const (
	MetricSubmitted     = "daccor_engine_events_submitted_total"
	MetricDropped       = "daccor_engine_events_dropped_total"
	MetricBlocked       = "daccor_engine_submit_blocked_total"
	MetricQueueDepth    = "daccor_engine_queue_depth"
	MetricQueueCapacity = "daccor_engine_queue_capacity"
	MetricSubmitLatency = "daccor_engine_submit_latency_seconds"
	MetricBatches       = "daccor_engine_batches_submitted_total"
	MetricBatchSize     = "daccor_engine_submit_batch_size"

	// Reordering-stage instruments: events released with a timestamp
	// below an already-released one (an inversion wider than the
	// buffer), events evicted unanalyzed by the drop-oldest policy
	// (every drop loses a queued event), and the device's partition
	// count (a constant per engine configuration).
	MetricReorderLate = "daccor_engine_reorder_late_total"
	MetricReorderLost = "daccor_engine_reorder_lost_total"
	MetricPartitions  = "daccor_engine_partitions"
)

// Supervision and checkpoint metric families, all labeled
// {device="..."}. Counters are bumped by the supervisor/worker; the
// state, timestamp, and age gauges read the shard's mutex-guarded
// health fields at scrape time.
const (
	// Read-path instruments: how long the worker is held up copying
	// state for a reader (the residual in-worker cost of a snapshot,
	// rules, save, or checkpoint query) and how often the epoch-gated
	// snapshot cache spares the worker that copy entirely.
	MetricCaptureSeconds      = "daccor_engine_capture_seconds"
	MetricSnapshotCacheHits   = "daccor_engine_snapshot_cache_hits_total"
	MetricSnapshotCacheMisses = "daccor_engine_snapshot_cache_misses_total"
	// How each sorted export of a dirty device was derived: by patching
	// the previous export with what the capture says moved, or by
	// sorting the tables in full.
	MetricExportPatched = "daccor_engine_export_patched_total"
	MetricExportRebuilt = "daccor_engine_export_rebuilt_total"

	MetricPanics           = "daccor_engine_worker_panics_total"
	MetricRestarts         = "daccor_engine_worker_restarts_total"
	MetricHealthState      = "daccor_engine_device_health_state"
	MetricLastRestart      = "daccor_engine_last_restart_timestamp_seconds"
	MetricCheckpoints      = "daccor_engine_checkpoints_total"
	MetricCheckpointErrors = "daccor_engine_checkpoint_errors_total"
	MetricCheckpointAge    = "daccor_engine_checkpoint_age_seconds"
)

// latencySampleMask subsamples the submit→analyze latency histogram:
// one in every 64 submitted events is timestamped at enqueue and
// measured after the worker analyzes it. Sampling keeps time.Now off
// the common path; queueing latency is a smooth signal, so 1/64
// coverage loses nothing an operator can act on.
const latencySampleMask = 63

// shardMetrics is one device's producer-side instruments.
type shardMetrics struct {
	submitted      *obs.Counter
	dropped        *obs.Counter
	blocked        *obs.Counter
	batches        *obs.Counter
	batchSize      *obs.Histogram
	latency        *obs.Histogram
	captureSeconds *obs.Histogram
	snapHits       *obs.Counter
	snapMisses     *obs.Counter
	exportPatched  *obs.Counter
	exportRebuilt  *obs.Counter
	panics         *obs.Counter
	restarts       *obs.Counter
	ckpts          *obs.Counter
	ckptErrors     *obs.Counter
	reorderLate    *obs.Counter
	reorderLost    *obs.Counter
}

// newShardMetrics registers one device's instruments. The queue-depth
// gauge reads the shard's live counters at scrape time; capacity is a
// constant gauge so dashboards can plot depth/capacity saturation.
func newShardMetrics(r *obs.Registry, s *shard, queueSize int) *shardMetrics {
	lbl := obs.L("device", s.id)
	m := &shardMetrics{
		submitted: r.Counter(MetricSubmitted, "Events accepted by Submit, per device.", lbl),
		dropped:   r.Counter(MetricDropped, "Events discarded by the drop-oldest backpressure policy.", lbl),
		blocked:   r.Counter(MetricBlocked, "Submits that had to wait for queue space under the Block policy.", lbl),
		batches:   r.Counter(MetricBatches, "Batches accepted by SubmitBatch, per device.", lbl),
		batchSize: r.Histogram(MetricBatchSize,
			"Events per SubmitBatch call.",
			obs.ExpBuckets(1, 2, 13), lbl),
		latency: r.Histogram(MetricSubmitLatency,
			"Sampled wall-clock latency from Submit to completed analysis, in seconds.",
			obs.LatencyBuckets(), lbl),
		captureSeconds: r.Histogram(MetricCaptureSeconds,
			"Worker time spent copying synopsis state for a reader (the ingest stall a query or checkpoint causes), in seconds.",
			obs.LatencyBuckets(), lbl),
		snapHits:      r.Counter(MetricSnapshotCacheHits, "Device reads of any kind (snapshot page, rules page, watch state, export) served from the epoch's shared capture without a worker round trip.", lbl),
		snapMisses:    r.Counter(MetricSnapshotCacheMisses, "Device reads of any kind that required a fresh capture: at most one per epoch.", lbl),
		exportPatched: r.Counter(MetricExportPatched, "Sorted exports derived by patching the device's previous export with the entries changed and keys evicted since.", lbl),
		exportRebuilt: r.Counter(MetricExportRebuilt, "Sorted exports derived by sorting the tables in full: the first export, the first after a restore or restart, and any the eviction log no longer reaches back from. A rebuilt share near 1 on a device in steady state means the log (C/4 keys per table) is too short for the device's eviction rate at its export cadence.", lbl),
		panics:        r.Counter(MetricPanics, "Worker panics recovered by the device supervisor.", lbl),
		restarts:      r.Counter(MetricRestarts, "Worker restarts performed by the device supervisor.", lbl),
		ckpts:         r.Counter(MetricCheckpoints, "Checkpoint generations committed, per device.", lbl),
		ckptErrors:    r.Counter(MetricCheckpointErrors, "Checkpoint saves that failed, per device.", lbl),
		reorderLate:   r.Counter(MetricReorderLate, "Events released out of timestamp order (inversion wider than the reorder buffer).", lbl),
		reorderLost:   r.Counter(MetricReorderLost, "Queued events evicted unanalyzed by the drop-oldest policy.", lbl),
	}
	r.GaugeFunc(MetricQueueDepth, "Events queued but not yet processed (ingest lag).",
		func() float64 { _, lag := s.counters(); return float64(lag) }, lbl)
	r.Gauge(MetricQueueCapacity, "Per-device event queue capacity.", lbl).Set(float64(queueSize))
	r.Gauge(MetricPartitions, "Analyzer sub-shards serving this device (1 = unpartitioned).", lbl).Set(float64(s.parts))
	r.GaugeFunc(MetricHealthState, "Device health: 0 healthy, 1 degraded, 2 failed.",
		func() float64 { return float64(s.health().State) }, lbl)
	r.GaugeFunc(MetricLastRestart, "Unix time of the device's last supervised restart (0 if never).",
		func() float64 {
			t := s.health().LastRestart
			if t.IsZero() {
				return 0
			}
			return float64(t.UnixNano()) / 1e9
		}, lbl)
	r.GaugeFunc(MetricCheckpointAge, "Seconds since the device's last committed checkpoint (-1 if none).",
		func() float64 {
			t := s.health().LastCheckpoint
			if t.IsZero() {
				return -1
			}
			return time.Since(t).Seconds()
		}, lbl)
	return m
}

// Mirrored per-device monitor and analyzer metric families; see
// Engine.collect.
const (
	MetricMonitorEvents       = "daccor_monitor_events_total"
	MetricMonitorFiltered     = "daccor_monitor_filtered_total"
	MetricMonitorDuplicates   = "daccor_monitor_duplicates_total"
	MetricMonitorTransactions = "daccor_monitor_transactions_total"
	MetricMonitorCapSplits    = "daccor_monitor_cap_splits_total"
	MetricMonitorOutOfOrder   = "daccor_monitor_out_of_order_total"
	MetricMonitorWindow       = "daccor_monitor_window_seconds"

	MetricAnalyzerTransactions   = "daccor_analyzer_transactions_total"
	MetricAnalyzerExtentTouches  = "daccor_analyzer_extent_touches_total"
	MetricAnalyzerPairTouches    = "daccor_analyzer_pair_touches_total"
	MetricAnalyzerItemPromotions = "daccor_analyzer_item_promotions_total"
	MetricAnalyzerPairPromotions = "daccor_analyzer_pair_promotions_total"
	MetricAnalyzerItemEvictions  = "daccor_analyzer_item_evictions_total"
	MetricAnalyzerPairEvictions  = "daccor_analyzer_pair_evictions_total"
	MetricAnalyzerPairDemotions  = "daccor_analyzer_pair_demotions_total"

	// Open-addressing index mirrors, labeled {device, table} with table
	// in {"items", "pairs"}. Probes/Lookups is the mean probe length —
	// the health signal for hash quality and load factor.
	MetricIndexLookups  = "daccor_core_index_lookups_total"
	MetricIndexProbes   = "daccor_core_index_probes_total"
	MetricIndexMaxProbe = "daccor_core_index_max_probe_length"
	MetricIndexSlots    = "daccor_core_index_slots"
	MetricIndexUsed     = "daccor_core_index_used"
)

// collect mirrors the worker-owned monitor and analyzer stats into the
// registry. It runs as a collect hook at scrape time: one stats query
// per device, then Store on mirror counters — the analyzer itself
// never touches an atomic. After Stop the stats query fails and the
// mirrors simply retain their last values.
func (e *Engine) collect() {
	st, err := e.Stats()
	if err != nil {
		return
	}
	r := e.metrics
	for _, d := range st.Devices {
		lbl := obs.L("device", d.Device)
		r.Counter(MetricMonitorEvents, "Events accepted by the monitor (after PID filtering).", lbl).Store(d.Monitor.Events)
		r.Counter(MetricMonitorFiltered, "Events dropped by the PID filter.", lbl).Store(d.Monitor.Filtered)
		r.Counter(MetricMonitorDuplicates, "Events removed by in-transaction deduplication.", lbl).Store(d.Monitor.Duplicates)
		r.Counter(MetricMonitorTransactions, "Transactions emitted by the monitor.", lbl).Store(d.Monitor.Transactions)
		r.Counter(MetricMonitorCapSplits, "Transactions closed by the size cap (overflow spills).", lbl).Store(d.Monitor.CapSplits)
		r.Counter(MetricMonitorOutOfOrder, "Events with timestamps before the open transaction's last event.", lbl).Store(d.Monitor.OutOfOrder)
		r.Gauge(MetricMonitorWindow, "Current rolling transaction window, in seconds.", lbl).Set(d.Window.Seconds())

		r.Counter(MetricAnalyzerTransactions, "Transactions processed by the online analyzer.", lbl).Store(d.Analyzer.Transactions)
		r.Counter(MetricAnalyzerExtentTouches, "Item-table extent touches (hits).", lbl).Store(d.Analyzer.Extents)
		r.Counter(MetricAnalyzerPairTouches, "Correlation-table pair touches (hits).", lbl).Store(d.Analyzer.PairTouches)
		r.Counter(MetricAnalyzerItemPromotions, "Item-table T1-to-T2 promotions.", lbl).Store(d.Analyzer.ItemPromotions)
		r.Counter(MetricAnalyzerPairPromotions, "Correlation-table T1-to-T2 promotions.", lbl).Store(d.Analyzer.PairPromotions)
		r.Counter(MetricAnalyzerItemEvictions, "Item-table evictions.", lbl).Store(d.Analyzer.ItemEvictions)
		r.Counter(MetricAnalyzerPairEvictions, "Correlation-table evictions.", lbl).Store(d.Analyzer.PairEvictions)
		r.Counter(MetricAnalyzerPairDemotions, "Pair demotions cascaded from item evictions.", lbl).Store(d.Analyzer.PairDemotions)

		for _, ix := range [...]struct {
			table string
			st    core.IndexStats
		}{{"items", d.ItemIndex}, {"pairs", d.PairIndex}} {
			tl := []obs.Label{obs.L("device", d.Device), obs.L("table", ix.table)}
			r.Counter(MetricIndexLookups, "Open-addressing index lookups (hits and misses).", tl...).Store(ix.st.Lookups)
			r.Counter(MetricIndexProbes, "Probe steps beyond the home slot, summed over lookups.", tl...).Store(ix.st.Probes)
			r.Gauge(MetricIndexMaxProbe, "Longest probe sequence any lookup has walked.", tl...).Set(float64(ix.st.MaxProbe))
			r.Gauge(MetricIndexSlots, "Open-addressing slot-array size.", tl...).Set(float64(ix.st.Slots))
			r.Gauge(MetricIndexUsed, "Open-addressing slots occupied by live entries.", tl...).Set(float64(ix.st.Used))
		}
	}
}

// observeSubmitLatency records one sampled submit→analyze latency.
func (m *shardMetrics) observeSubmitLatency(enqueuedUnixNano int64) {
	m.latency.Observe(time.Duration(time.Now().UnixNano() - enqueuedUnixNano).Seconds())
}
