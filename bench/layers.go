package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/fleet"
	"daccor/internal/obs"
	"daccor/internal/pipeline"
	"daccor/internal/realtime"
)

// layerReps: each read-path probe is repeated and the quiet quartile of
// the repetitions reported; seven keeps the whole ledger under two
// seconds.
const layerReps = 7

// mergeSources: the fan-in of the merge probes, read-heavy's device count.
const mergeSources = 64

// ledger is the per-layer metric set of one traced run.
type ledger map[string]float64

// quietMs times fn layerReps times; prep (untimed) runs before each.
func quietMs(prep func() error, fn func() error) (float64, error) {
	var s samples
	for i := 0; i < layerReps; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		s.add(time.Since(start))
	}
	return quiet(s, "lower"), nil
}

// stopwatch fills a ledger with quiet-quartile timings and remembers the
// first error, so a run of probes reads as a list.
type stopwatch struct {
	v   ledger
	err error
}

func (t *stopwatch) do(name string, prep, fn func() error) {
	if t.err == nil {
		t.v[name], t.err = quietMs(prep, fn)
	}
}

// fromLadder turns rung differences into the layers' per-event costs.
func (v ledger) fromLadder(l *ladder) {
	v["monitor.ns_per_event"] = l.ns("A")
	v["monitor.events_per_tx"] = l.eventsPerTx
	v["core.analyze_ns_per_event"] = l.ns("B") - l.ns("A")
	v["core.analyze_ns_per_tx"] = (l.ns("B") - l.ns("A")) * l.eventsPerTx
	v["core.state_bytes"] = float64(l.stateBytes)
	v["engine.baseline_ns_per_event"] = l.ns("C")
	v["engine.overhead_ns_per_event"] = l.ns("D") - l.ns("C")
	v["engine.reorder_ns_per_event"] = l.ns("D1") - l.ns("D")
	v["engine.ns_per_event"] = l.ns("D1")
	v["engine.p2_ns_per_event"] = l.ns("D2")
	v["realtime.ingest_decode_ns_per_event"] = l.ns("E") - l.ns("D1")
	v["client.submit_encode_ns_per_event"] = l.ns("F") - l.ns("E")
	v["realtime.http_closed_loop_events_per_s"] = 1e9 / l.ns("F")
	v["bench.ladder_monotone"] = 0
	if l.Monotone {
		v["bench.ladder_monotone"] = 1
	}
}

// coreReads times the read-side primitives of core on states built
// without the engine: the ladder's full analyzer for capture, sort and
// rules; a 64-source merge index with one dirty source for merge and
// delta; and the fleet wire format on that same delta.
func (v ledger) coreReads(l *ladder, trace []blktrace.Event) error {
	var raw core.RawSnapshot
	t := &stopwatch{v: v}
	do := t.do
	do("core.capture_ms", nil, func() error { l.full.CaptureSnapshot(&raw); return nil })
	do("core.snapshot_sort_ms", nil, func() error { _ = raw.Snapshot(0); return nil })
	do("core.rules_top64_ms", nil, func() error {
		_ = raw.TopRules(realtime.DefaultSupport, realtime.DefaultConfidence, readTop)
		return nil
	})
	if t.err != nil {
		return t.err
	}

	// 64 small sources, as a fleet of seeded devices would export them.
	chunk := min(smallSeed, len(trace)/2)
	idx := core.NewMergeIndex()
	name := func(i int) string { return fmt.Sprintf("src%02d", i) }
	var dirty *pipeline.Pipeline
	for i := 0; i < mergeSources; i++ {
		// Overlapping windows of the trace: sources share hot extents,
		// so the union has summed entries as well as disjoint ones.
		// Source 0 starts at the trace's head so it can keep reading.
		off := (i * 997) % (len(trace) - chunk)
		p, err := baseline(smallCapacity, trace[off:off+chunk])
		if err != nil {
			return err
		}
		idx.Update(name(i), p.Snapshot(0))
		if i == 0 {
			dirty = p
		}
	}
	// Source 0 moves on by one writer batch per repetition.
	next := chunk
	var old, cur core.Snapshot
	advance := func() error {
		old = dirty.Snapshot(0)
		if err := feed(dirty, trace[next:next+writerBatch]); err != nil {
			return err
		}
		next += writerBatch
		cur = dirty.Snapshot(0)
		return nil
	}
	update := func() error { idx.Update(name(0), cur); return nil }
	do("core.merge_update_ms", advance, update)
	do("core.merge_snapshot_ms", func() error { _ = advance(); return update() },
		func() error { _ = idx.Snapshot(); return nil })
	var delta core.SnapshotDelta
	do("core.delta_diff_ms", advance, func() error { delta = core.DiffSnapshots(old, cur); return nil })
	var enc bytes.Buffer
	do("core.delta_encode_ms", nil, func() error {
		enc.Reset()
		_, err := core.EncodeDelta(&enc, delta)
		return err
	})
	v["core.delta_bytes"] = float64(enc.Len())
	if t.err != nil {
		return t.err
	}

	// The same delta as a one-section sync frame.
	full := fleet.Frame{Collector: "ledger", Instance: 1, Seq: 1,
		Sections: []fleet.Section{{Device: "dev", Kind: fleet.SectionFull, Epoch: 1, Snap: old}}}
	frame := fleet.Frame{Collector: "ledger", Instance: 1, Seq: 2,
		Sections: []fleet.Section{{Device: "dev", Kind: fleet.SectionDelta, BaseEpoch: 1, Epoch: 2, Delta: delta}}}
	do("fleet.frame_encode_ms", nil, func() error { enc.Reset(); return fleet.EncodeFrame(&enc, frame) })
	wire := append([]byte(nil), enc.Bytes()...)
	var decoded fleet.Frame
	do("fleet.frame_decode_ms", nil, func() (err error) {
		decoded, err = fleet.DecodeFrame(bytes.NewReader(wire))
		return err
	})
	var agg *fleet.Aggregator
	do("fleet.apply_ms", func() error {
		if agg != nil {
			agg.Close()
		}
		agg = fleet.NewAggregator(fleet.Config{})
		_, err := agg.Apply(full, 0)
		return err
	}, func() error {
		res, err := agg.Apply(decoded, len(wire))
		if err == nil && (len(res.Acks) != 1 || res.Acks[0].Action != fleet.AckApplied) {
			err = fmt.Errorf("ledger: delta frame not applied: %+v", res.Acks)
		}
		return err
	})
	if agg != nil {
		agg.Close()
	}
	return t.err
}

// fromSystem reads everything the ledger takes from a live system at
// the end of its round.
func (v ledger) fromSystem(s *system) error {
	v["realtime.event_to_rule_p95_ms"] = s.probe.p95()
	if err := v.counters(s); err != nil {
		return err
	}
	return v.liveReads(s)
}

// liveReads times the read paths of engine, realtime and fleet on the
// live system, dirtying one device before each miss.
func (v ledger) liveReads(s *system) error {
	st := s.streams[0]
	buf := make([]blktrace.Event, writerBatch)
	dirty := func() error {
		if err := st.submit(nil, -1, buf); err != nil {
			return err
		}
		return s.checkDevice(st.id, st.submitted.Load())
	}
	t := &stopwatch{v: v}
	do := t.do
	snapshot := func() error { _, err := s.eng.Snapshot(st.id, 0); return err }
	do("engine.snapshot_miss_ms", dirty, snapshot)
	do("engine.snapshot_hit_us", nil, snapshot)
	v["engine.snapshot_hit_us"] *= 1000
	do("engine.merged_read_ms", dirty, func() error { _, err := s.eng.MergedSnapshot(0); return err })
	var file bytes.Buffer
	do("engine.write_snapshot_ms", nil, func() error { file.Reset(); return s.eng.WriteSnapshot(st.id, &file) })
	v["engine.write_snapshot_bytes"] = float64(file.Len())

	// The watcher's state, fetched through the long-poll form of the
	// same route: no If-None-Match, so it is built and returned at once.
	url := fmt.Sprintf("%s/v1/devices/%s/watch?wait=1ms&support=1&top=%d", s.api.url, probeDevice, readTop)
	hc := &http.Client{Transport: s.transport}
	stateBytes := 0
	do("realtime.watch_state_build_ms", nil, func() error {
		resp, err := hc.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("ledger: watch long-poll answered %d", resp.StatusCode)
		}
		stateBytes = len(body)
		return err
	})
	v["realtime.watch_state_bytes"] = float64(stateBytes)

	do("fleet.merged_read_ms", func() error {
		if err := dirty(); err != nil {
			return err
		}
		_, err := s.syncRound(nil, -1)
		return err
	}, func() error {
		_ = s.agg.TopRules(realtime.DefaultSupport, realtime.DefaultConfidence, readTop)
		return nil
	})
	return t.err
}

// counters reads what the system counted about itself over the run.
func (v ledger) counters(s *system) error {
	st, err := s.eng.Stats()
	if err != nil {
		return err
	}
	mon, an := st.TotalMonitor(), st.TotalAnalyzer()
	kev := float64(mon.Events) / 1000
	v["monitor.out_of_order"] = float64(mon.OutOfOrder)
	v["core.pair_touches_per_event"] = float64(an.PairTouches) / float64(mon.Events)
	v["core.pair_evictions_per_kevent"] = float64(an.PairEvictions) / kev
	v["core.pair_promotions_per_kevent"] = float64(an.PairPromotions) / kev
	v["engine.dropped"] = float64(st.TotalDropped())
	reg := s.eng.Metrics()
	late := uint64(0)
	for _, d := range st.Devices {
		late += reg.Counter(engine.MetricReorderLate, "", obs.L("device", d.Device)).Value()
	}
	v["engine.reorder_late"] = float64(late)
	v["engine.lag_events_max"] = float64(s.lagMax.Load())

	deliveries := float64(reg.Counter(realtime.MetricWatchEvents, "", obs.L("mode", "sse")).Value())
	v["realtime.watch_deliveries"] = deliveries
	epoch, err := s.eng.Epoch(probeDevice)
	if err != nil {
		return err
	}
	v["realtime.watch_coalesced_ratio"] = deliveries / float64(max(epoch-s.probe.epoch0, 1))
	v["client.revalidations"] = float64(s.cl.Revalidations())
	v["client.watch_reconnects"] = float64(s.dials.watchDials.Load() - 1)

	var sections, deltas, fullRequired int
	for _, r := range s.rounds {
		sections += r.Sections
		deltas += r.Deltas
		fullRequired += r.FullRequired
	}
	v["fleet.delta_section_ratio"] = float64(deltas) / float64(max(sections, 1))
	v["fleet.full_required"] = float64(fullRequired)
	v["fleet.sync_failures"] = float64(s.sync.Stats().Failures)
	v["bench.gen_late_p99_ms"] = s.late.sorted().quantile(0.99)
	return nil
}

// fromSpans reduces the traced pass's spans to the timings the ledger
// names.
func (v ledger) fromSpans(dur map[string]samples) {
	q := func(name string, q float64) float64 { return dur[name].sorted().quantile(q) }
	v["engine.submit_batch_p50_us"] = 1000 * q(spanSubmitBatch, 0.5)
	v["engine.submit_batch_p99_us"] = 1000 * q(spanSubmitBatch, 0.99)
	v["realtime.ingest_post_p95_ms"] = q(spanHTTPPost, 0.95)
	v["realtime.rules_get_miss_ms"] = q(spanRead200, 0.5)
	v["realtime.rules_get_304_us"] = 1000 * q(spanRead304, 0.5)
	v["fleet.sync_round_p50_ms"] = q(spanSyncNow, 0.5)
}
