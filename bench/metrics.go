package main

// metricSpec names one metric the program prints. BENCHMARK.json
// carries the same lists; names_test.go keeps the two in step.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression: at least
	// three times the quartile spread of ten runs on ten seeds on the
	// 2-core recording host while it was quiet, and above the spread seen
	// while it was not (README.md has both).
	bound float64
}

// endToEnd are the metrics a user of the system feels; the untraced
// pass reports all of them on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_events_per_s", "events/s", "higher", 0.25},
	{"recall_pct", "%", "higher", 0.01},
	{"cpu_s_per_mevent", "CPU-s/Mevent", "lower", 0.25},
	{"event_to_rule_p50_ms", "ms", "lower", 0.25},
	{"http_ingest_p50_ms", "ms", "lower", 0.25},
	{"query_reads_per_s", "reads/s", "higher", 0.25},
	{"fleet_propagate_p50_ms", "ms", "lower", 0.25},
	{"fleet_sync_bytes_per_cycle", "bytes", "lower", 0.20},
	{"heap_mb", "MiB", "lower", 0.08},
}

// perLayer are the single-layer metrics of the traced pass.
var perLayer = []metricSpec{
	{"monitor.ns_per_event", "ns/event", "lower", 0},
	{"monitor.events_per_tx", "events", "higher", 0},
	{"monitor.out_of_order", "count", "lower", 0},

	{"core.analyze_ns_per_event", "ns/event", "lower", 0},
	{"core.analyze_ns_per_tx", "ns/tx", "lower", 0},
	{"core.pair_touches_per_event", "count", "lower", 0},
	{"core.pair_evictions_per_kevent", "count", "lower", 0},
	{"core.pair_promotions_per_kevent", "count", "higher", 0},
	{"core.state_bytes", "bytes", "lower", 0},
	{"core.capture_ms", "ms", "lower", 0},
	{"core.snapshot_sort_ms", "ms", "lower", 0},
	{"core.rules_top64_ms", "ms", "lower", 0},
	{"core.merge_update_ms", "ms", "lower", 0},
	{"core.merge_snapshot_ms", "ms", "lower", 0},
	{"core.delta_diff_ms", "ms", "lower", 0},
	{"core.delta_encode_ms", "ms", "lower", 0},
	{"core.delta_bytes", "bytes", "lower", 0},

	{"engine.ns_per_event", "ns/event", "lower", 0},
	{"engine.overhead_ns_per_event", "ns/event", "lower", 0},
	{"engine.reorder_ns_per_event", "ns/event", "lower", 0},
	{"engine.p2_ns_per_event", "ns/event", "lower", 0},
	{"engine.baseline_ns_per_event", "ns/event", "lower", 0},
	{"engine.submit_batch_p50_us", "us", "lower", 0},
	{"engine.submit_batch_p99_us", "us", "lower", 0},
	{"engine.lag_events_max", "events", "lower", 0},
	{"engine.dropped", "count", "lower", 0},
	{"engine.reorder_late", "count", "lower", 0},
	{"engine.epochs_per_kevent", "count", "lower", 0},
	{"engine.snapshot_hit_us", "us", "lower", 0},
	{"engine.snapshot_miss_ms", "ms", "lower", 0},
	{"engine.merged_read_ms", "ms", "lower", 0},
	{"engine.write_snapshot_ms", "ms", "lower", 0},
	{"engine.write_snapshot_bytes", "bytes", "lower", 0},

	{"realtime.ingest_decode_ns_per_event", "ns/event", "lower", 0},
	{"realtime.ingest_post_p95_ms", "ms", "lower", 0},
	{"realtime.rules_get_miss_ms", "ms", "lower", 0},
	{"realtime.rules_get_304_us", "us", "lower", 0},
	{"realtime.watch_deliveries", "count", "higher", 0},
	{"realtime.watch_coalesced_ratio", "ratio", "higher", 0},
	{"realtime.watch_state_bytes", "bytes", "lower", 0},
	{"realtime.watch_state_build_ms", "ms", "lower", 0},
	{"realtime.event_to_rule_p95_ms", "ms", "lower", 0},
	{"realtime.http_closed_loop_events_per_s", "events/s", "higher", 0},

	{"client.submit_encode_ns_per_event", "ns/event", "lower", 0},
	{"client.revalidations", "count", "higher", 0},
	{"client.watch_reconnects", "count", "lower", 0},

	{"fleet.sync_round_p50_ms", "ms", "lower", 0},
	{"fleet.frame_encode_ms", "ms", "lower", 0},
	{"fleet.frame_decode_ms", "ms", "lower", 0},
	{"fleet.apply_ms", "ms", "lower", 0},
	{"fleet.merged_read_ms", "ms", "lower", 0},
	{"fleet.delta_section_ratio", "ratio", "higher", 0},
	{"fleet.full_required", "count", "lower", 0},
	{"fleet.sync_failures", "count", "lower", 0},

	{"bench.gen_late_p99_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.ladder_monotone", "count", "higher", 0},
}

func specByName(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
