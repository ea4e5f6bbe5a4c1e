package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/engine"
	"daccor/pkg/client"
)

// Sizes and rates are constants, not flags: a number that can be
// changed from the command line is a number two runs can disagree on.
// Host-dependent ones assume nproc = 2 (see README.md).
const (
	// traceProfile: wdev is the MSR workload the paper leads with and
	// the one every existing microbenchmark in the repo uses.
	traceProfile = "wdev"
	// txWindow: static, so a trace's transactions depend on the trace
	// alone and every lap repeats them (the dynamic window needs
	// completion latencies the harness does not have).
	txWindow = 100 * time.Microsecond
	// tableCapacity: charactld's default C, entries per tier.
	tableCapacity = 32 << 10
	// smallCapacity: C for the workloads with tens of devices. At the
	// default C a device preallocates ~25 MB and a 64-device fleet's
	// merged export holds ~10^6 entries: set-up takes 10 s and a fleet
	// read 150 ms, so a run would measure a handful of reads. 1 Ki per
	// tier keeps a fleet read near 30 ms and the tables are still full
	// after smallSeed events.
	smallCapacity = 1 << 10
	// lapGap separates laps of a replayed trace by far more than
	// txWindow, so no transaction spans a lap boundary.
	lapGap = int64(10 * time.Millisecond)

	// subTraces: independently generated pieces per device trace; see
	// generate.
	subTraces = 4

	// ingestTrace: one lap of 200 k wdev events brings a device's 2x32 Ki
	// pair table to capacity, so the timed laps run on full tables.
	ingestTrace = 200_000
	// ingestBatch: the replayer's SubmitBatch size in cmd/charactld.
	ingestBatch = 64
	// producers: one per core of the 2-core host.
	producers = 2
	// equivPrefix: events after which P=2 is compared with P=1; short
	// enough that neither has evicted, the regime where they are equal.
	equivPrefix = 16_000

	// postBatch and postPeriod: 300 events every 2 ms = 150 k events/s,
	// about a third of what one loopback connection carries closed loop,
	// so the open loop has headroom and latency reflects the system,
	// not a saturated generator.
	postBatch  = 300
	postPeriod = 2 * time.Millisecond
	// liveDevices: enough targets that consecutive POSTs hit different
	// shards, few enough that each stays warm.
	liveDevices = 4
	// liveSeed: a short HTTP verification lap per device; the load
	// devices of live-watch only need to be warm, the probe device
	// carries the realistic state.
	liveSeed = 30_000
	// probeEvery: one probe per 25 slots = every 50 ms, ~20 samples/s:
	// enough for a stable median in a 10 s run, too few to load the watcher.
	probeEvery = 25
	// probeSeedEvents gives the probe device ~37 k live pairs, so the
	// watcher's capture/sort/rules/encode work is of realistic size.
	probeSeedEvents = 100_000
	// probeSeedReps puts the probe pair's count above every trace pair,
	// so it is rank 1 for the whole run.
	probeSeedReps = 5_000
	// probeSpacing on the probe device's own timeline leaves room for
	// the closer at +1 ms.
	probeSpacing = int64(2 * time.Millisecond)
	// probeTimeout: a rule that takes longer than this to reach a
	// subscriber counts as a failed operation.
	probeTimeout = 2 * time.Second

	// readDevices: a fan-in wide enough that merged reads are dominated
	// by the merge index, not by one device.
	readDevices = 64
	// smallSeed: events seeded per device where many devices exist;
	// enough to fill a smallCapacity table several times over.
	smallSeed = 8_000
	// bulkBatch: SubmitBatch size where a device is only being filled.
	bulkBatch = 256
	// writerPeriod and writerBatch: 12.8 k events/s, about 1 % of ingest
	// saturation — reads beside writes, not a write workload.
	writerPeriod = 5 * time.Millisecond
	writerBatch  = 64
	// readTop: the rule count a prefetcher would act on.
	readTop = 64
	// readsPerWrite: the bystander read lap dirties one device every so
	// many reads, matching the ratio the native writer produces.
	readsPerWrite = 5

	// fleetDevices seeded on the collector; fleetFanout devices change
	// per cycle, so a cycle's frame carries 4 deltas and 28 skips.
	fleetDevices = 32
	fleetFanout  = 4
	fleetBatch   = 256

	// Bystander laps: before the native phase, the operations of the
	// users it does not load run one at a time on the state the
	// verification lap built, the system idle before each, so a lap
	// measures what one operation costs on that state and nothing else.
	// Counts, not durations: the laps do the same work in every round, so
	// the fleet cycles ship the same frames and their byte count repeats.
	// They are sized so that a round's laps stay near one second where an
	// operation is dearest (a fleet cycle over full 2x32 Ki devices takes
	// 0.2 s); the read lap is one pass over readMix.
	bystanderPosts  = 100
	bystanderCycles = 2
	// Probes touch only the probe device, so their lap may go by the
	// clock: at least bystanderProbes and at least probeLap. Where a probe
	// is dear (through two partitions, 50 ms) the count decides; where it
	// is cheap (small tables, 1.6 ms) the median rests on a hundred.
	bystanderProbes = 8
	probeLap        = 150 * time.Millisecond

	probeDevice = "probe"
)

// readMix is the fixed request mix of the reader, by operation index:
// F fleet rules (40 %), D device rules (30 %), S device snapshot (10 %),
// R revalidation of a device nobody writes (20 %, expect 304).
const readMix = "FDFRDFSRDF"

// Span names: one per harness→system call site, prefixed by the layer
// that receives the call.
const (
	spanSubmitBatch = "engine.submit_batch"
	spanBarrier     = "engine.barrier"
	spanHTTPPost    = "realtime.ingest_post"
	spanProbePost   = "realtime.probe_post"
	spanProbeWait   = "realtime.probe_wait"
	spanRead        = "client.read"
	spanRead200     = "realtime.get_200"
	spanRead304     = "realtime.get_304"
	spanFleetCycle  = "fleet.cycle"
	spanSyncNow     = "fleet.sync_now"
	spanAggGet      = "fleet.agg_get"
)

// workload is one traffic mix. Every workload builds the whole system
// and reports every metric: its native phase loads the layers it names
// for --seconds in all, and the operations of the users it does not
// stress run before it as short bystander laps.
type workload struct {
	name, why  string
	devices    int  // load devices (the probe device comes on top)
	traceLen   int  // events generated per load device
	seedLen    int  // events of the verification lap per device
	seedBatch  int  // its batch size: the workload's own
	seedHTTP   bool // and its path: POSTs, not SubmitBatch
	capacity   int  // synopsis table size C, entries per tier
	partitions int
	policy     engine.Backpressure
	// native runs the timed section; it returns the series it measures
	// natively, keyed by end-to-end metric name.
	native func(s *system, tr *tracer, d time.Duration, out *measured) error
	// primary is the end-to-end metric the native phase exists to
	// measure; tracing overhead is judged on it.
	primary string
	// skip lists the bystander laps the native phase already covers.
	skipPosts, skipProbes, skipReads, skipCycles bool
}

var workloads = []*workload{
	{
		name:    "ingest-saturate",
		why:     "closed loop, 2 devices x 1 producer on Engine.SubmitBatch: ring, router, reorder, monitor and core do all the work, HTTP and fleet none; engine-overhead fixes must show here",
		devices: 2, traceLen: ingestTrace, seedLen: ingestTrace, seedBatch: ingestBatch, capacity: tableCapacity, partitions: 1, policy: engine.Block,
		native: (*system).ingestPhase, primary: "ingest_events_per_s",
	},
	{
		name:    "ingest-partitioned",
		why:     "closed loop, 1 device, 2 partitions, 2 producers racing on one ring: txRings, reorder buffer and per-partition merge do real work; a P=1 gain bought at P>1's expense shows only here",
		devices: 1, traceLen: ingestTrace, seedLen: ingestTrace, seedBatch: ingestBatch, capacity: tableCapacity, partitions: 2, policy: engine.Block,
		native: (*system).ingestPhase, primary: "ingest_events_per_s",
	},
	{
		name:    "live-watch",
		why:     "open loop, 150k events/s of HTTP ingest on one connection plus a probe every 50 ms seen by one SSE watcher: JSON decode, watch wake-up, state build and client carry it; freshness as a subscriber feels",
		devices: liveDevices, traceLen: ingestTrace, seedLen: liveSeed, seedBatch: postBatch, seedHTTP: true, capacity: tableCapacity, partitions: 1, policy: engine.DropOldest,
		native: (*system).livePhase, primary: "event_to_rule_p50_ms", skipPosts: true, skipProbes: true,
	},
	{
		name:    "read-heavy",
		why:     "reads beside writes: one closed-loop reader on a fixed GET mix over 64 devices while a writer dirties one device every 5 ms; merge index, epoch-gated caches and JSON encode dominate",
		devices: readDevices, traceLen: smallSeed, seedLen: smallSeed, seedBatch: bulkBatch, capacity: smallCapacity, partitions: 1, policy: engine.Block,
		native: (*system).readPhase, primary: "query_reads_per_s", skipReads: true,
	},
	{
		name:    "fleet-sync",
		why:     "closed loop of collector-to-aggregator cycles (4 of 32 devices change, barrier, SyncNow, GET merged rules): diff, encode, HTTP, Apply and merge do the work; bytes catch a sync that sends fulls",
		devices: fleetDevices, traceLen: smallSeed, seedLen: smallSeed, seedBatch: bulkBatch, capacity: smallCapacity, partitions: 1, policy: engine.Block,
		native: (*system).fleetPhase, primary: "fleet_propagate_p50_ms", skipCycles: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inPairs runs fn(i) for i in [0,n) on at most `producers` goroutines
// and returns the first error.
func inPairs(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n && errs[p] == nil; i += producers {
				errs[p] = fn(i)
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// seed runs the verification lap: each load device's first seedLen
// events through the workload's own ingest path, one producer per
// device (so the lap is deterministic even where the timed section
// races two producers on one ring).
func (w *workload) seed(s *system) error {
	return inPairs(len(s.streams), func(i int) error {
		st := s.streams[i]
		buf := make([]blktrace.Event, w.seedBatch)
		for done := 0; done < w.seedLen; {
			n := min(w.seedBatch, w.seedLen-done)
			if w.partitions > 1 && done < equivPrefix {
				n = min(n, equivPrefix-done)
			}
			var err error
			pace(st.dev)
			if w.seedHTTP {
				_, err = s.httpPost(nil, -1, st, buf[:n], time.Now())
			} else {
				err = st.submit(nil, -1, buf[:n])
			}
			if err != nil {
				return err
			}
			done += n
			if w.partitions > 1 && done == equivPrefix {
				if err := s.checkDevice(st.id, st.submitted.Load()); err != nil {
					return err
				}
				if s.prefixSnap, err = s.eng.Snapshot(st.id, 0); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// measured is what one pass over a workload produced: per metric one
// value per round, of which the report takes the quiet quartile.
type measured struct {
	rounds map[string][]float64
	// pool holds a timing's samples over all rounds, for the sample
	// count and the tail percentile the report prints beside the value.
	pool map[string]samples
}

func newMeasured() *measured {
	return &measured{rounds: map[string][]float64{}, pool: map[string]samples{}}
}

// add records this round's value of a rate, size or count metric.
func (m *measured) add(name string, v float64) { m.rounds[name] = append(m.rounds[name], v) }

// timing records this round's value of a timing metric, the median of
// its samples.
func (m *measured) timing(name string, s samples) {
	m.add(name, median(s))
	m.pool[name] = append(m.pool[name], s...)
}

// value reduces a metric to its quiet-quartile round; timings also get
// a summary of the pooled samples.
func (m *measured) value(spec metricSpec) (v float64, sum summary, ok bool) {
	r, ok := m.rounds[spec.name]
	if !ok {
		return 0, summary{}, false
	}
	return quiet(r, spec.better), summarize(m.pool[spec.name]), true
}

// httpPost sends the next len(buf) events of st through the typed
// client and returns the latency measured from due.
func (s *system) httpPost(tb *spanBuf, parent int, st *stream, buf []blktrace.Event, due time.Time) (time.Duration, error) {
	st.next(buf)
	sp := tb.begin(spanHTTPPost, parent, 0)
	n, err := s.cl.SubmitEvents(context.Background(), st.id, buf)
	tb.end(sp, int64(len(buf)))
	if err == nil && n != len(buf) {
		err = fmt.Errorf("%s: posted %d events, %d accepted", st.id, len(buf), n)
	}
	if err == nil {
		st.submitted.Add(uint64(len(buf)))
	}
	return time.Since(due), s.op(err)
}

// ingestPhase is the closed-loop in-process ingest: `producers`
// goroutines push ingestBatch-sized batches until the deadline.
// Producer p feeds stream p, or shares stream 0 when there is one.
func (s *system) ingestPhase(tr *tracer, d time.Duration, _ *measured) error {
	deadline := time.Now().Add(d)
	return inPairs(producers, func(p int) error {
		st := s.streams[p%len(s.streams)]
		tb := tr.thread()
		buf := make([]blktrace.Event, ingestBatch)
		for i := 0; time.Now().Before(deadline); i++ {
			if err := st.submit(tb, -1, buf); err != nil {
				return err
			}
			if tb != nil && i%64 == 0 {
				s.noteLag(st.dev.Lag())
			}
		}
		return nil
	})
}

func (s *system) noteLag(lag int) {
	for {
		cur := s.lagMax.Load()
		if int64(lag) <= cur || s.lagMax.CompareAndSwap(cur, int64(lag)) {
			return
		}
	}
}

// livePhase is the open loop: every postPeriod one batch goes to the
// next device, every probeEvery-th slot also carries a probe; all on
// one connection, the watcher holds the second.
func (s *system) livePhase(tr *tracer, d time.Duration, out *measured) error {
	tb := tr.thread()
	buf := make([]blktrace.Event, postBatch)
	first := s.probe.sent() + 1
	var lat samples
	var firstErr error
	late := openLoop(time.Now(), postPeriod, d, func(i int, due time.Time) {
		l, err := s.httpPost(tb, -1, s.streams[i%len(s.streams)], buf, due)
		lat.add(l)
		if err == nil && i%probeEvery == 0 {
			err = s.probe.post(tb, -1, due)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if tb != nil && i%64 == 0 {
			s.noteLag(s.streams[i%len(s.streams)].dev.Lag())
		}
	})
	s.late = append(s.late, late...)
	out.timing("http_ingest_p50_ms", lat)
	s.probeResults(out, first)
	return firstErr
}

// probeResults waits for the probes sent since `first` and records
// their event→rule delays; an unseen probe is a failed operation.
func (s *system) probeResults(out *measured, first int) {
	last := s.probe.sent()
	s.probe.await(last, probeTimeout)
	lat, missed := s.probe.latencies(first, last)
	s.attempted.Add(int64(last - first + 1))
	s.failed.Add(int64(missed))
	out.timing("event_to_rule_p50_ms", lat)
}

// read issues operation i of the fixed mix. Device reads walk the load
// devices; revalidations target the probe device, which nothing writes
// while reads run.
func (s *system) read(tb *spanBuf, i int) error {
	ctx, q := context.Background(), client.Query{Top: readTop}
	dev := s.streams[(i*7)%len(s.streams)].id
	before := s.cl.Revalidations()
	sp := tb.begin(spanRead, -1, int64(i))
	var err error
	switch readMix[i%len(readMix)] {
	case 'F':
		_, err = s.cl.FleetRules(ctx, q)
	case 'D':
		_, err = s.cl.DeviceRules(ctx, dev, q)
	case 'S':
		_, err = s.cl.DeviceSnapshot(ctx, dev, q)
	case 'R':
		_, err = s.cl.DeviceRules(ctx, probeDevice, q)
	}
	tb.end(sp, 1)
	if s.cl.Revalidations() > before {
		tb.rename(sp, spanRead304)
	} else {
		tb.rename(sp, spanRead200)
	}
	return s.op(err)
}

// readPhase: a writer goroutine dirties one device every writerPeriod
// while the reader runs the mix closed loop on one connection.
func (s *system) readPhase(tr *tracer, d time.Duration, out *measured) error {
	start := time.Now()
	var wg sync.WaitGroup
	var writeErr error
	var late samples
	wg.Add(1)
	go func() {
		defer wg.Done()
		tb := tr.thread()
		buf := make([]blktrace.Event, writerBatch)
		late = openLoop(start, writerPeriod, d, func(i int, _ time.Time) {
			if err := s.streams[i%len(s.streams)].submit(tb, -1, buf); err != nil && writeErr == nil {
				writeErr = err
			}
		})
	}()
	tb := tr.thread()
	deadline := start.Add(d)
	reads := 0
	var readErr error
	for ; readErr == nil && time.Now().Before(deadline); reads++ {
		readErr = s.read(tb, s.reads+reads)
	}
	elapsed := time.Since(start)
	wg.Wait()
	s.reads += reads
	s.late = append(s.late, late...)
	out.add("query_reads_per_s", float64(reads)/elapsed.Seconds())
	if readErr != nil {
		return readErr
	}
	return writeErr
}

// readLap is the bystander form of readPhase: one pass over the mix, the
// writer folded into the same goroutine at the native write:read ratio
// and fully analyzed before the next read starts. The rate is reads /
// time spent reading.
func (s *system) readLap(tb *spanBuf, out *measured) error {
	buf := make([]blktrace.Event, writerBatch)
	var reading time.Duration
	for range readMix {
		if s.reads%readsPerWrite == 0 {
			st := s.streams[(s.reads/readsPerWrite)%len(s.streams)]
			if err := st.submit(tb, -1, buf); err != nil {
				return err
			}
			if err := s.checkDevice(st.id, st.submitted.Load()); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := s.read(tb, s.reads); err != nil {
			return err
		}
		reading += time.Since(start)
		s.reads++
	}
	out.add("query_reads_per_s", float64(len(readMix))/reading.Seconds())
	return nil
}

// fleetCycle changes fleetFanout devices, waits until the collector
// has analyzed the change, syncs, and reads the merged rules back from
// the aggregator: one change made visible fleet-wide.
func (s *system) fleetCycle(tb *spanBuf, i int, buf []blktrace.Event) (time.Duration, int, error) {
	root := tb.begin(spanFleetCycle, -1, int64(i))
	start := time.Now()
	touched := make([]*stream, fleetFanout)
	for j := range touched {
		touched[j] = s.streams[(i*fleetFanout+j)%len(s.streams)]
		if err := touched[j].submit(tb, root, buf); err != nil {
			return 0, 0, err
		}
	}
	sp := tb.begin(spanBarrier, root, int64(i))
	for _, st := range touched {
		if err := s.checkDevice(st.id, st.submitted.Load()); err != nil {
			return 0, 0, err
		}
	}
	tb.end(sp, fleetFanout)
	rep, err := s.syncRound(tb, root)
	if err != nil {
		return 0, 0, err
	}
	s.rounds = append(s.rounds, rep)
	sp = tb.begin(spanAggGet, root, int64(i))
	rs, err := s.aggCl.FleetRules(context.Background(), client.Query{Top: readTop})
	tb.end(sp, int64(len(rs.Rules)))
	lat := time.Since(start)
	tb.end(root, int64(rep.Bytes))
	return lat, rep.Bytes, s.op(err)
}

// fleetLoop runs cycles while more(i) holds and records their medians.
func (s *system) fleetLoop(tb *spanBuf, more func(i int) bool, out *measured) error {
	buf := make([]blktrace.Event, fleetBatch)
	var lat samples
	bytes, n := 0, 0
	for ; more(n); n++ {
		l, b, err := s.fleetCycle(tb, s.cycles+n, buf)
		if err != nil {
			return err
		}
		lat.add(l)
		bytes += b
	}
	s.cycles += n
	out.timing("fleet_propagate_p50_ms", lat)
	out.add("fleet_sync_bytes_per_cycle", float64(bytes)/float64(max(n, 1)))
	return nil
}

func (s *system) fleetPhase(tr *tracer, d time.Duration, out *measured) error {
	deadline := time.Now().Add(d)
	return s.fleetLoop(tr.thread(), func(int) bool { return time.Now().Before(deadline) }, out)
}

// bystanders runs, for every user the native phase does not load, that
// user's operations as a short sequential lap on the live system.
func (w *workload) bystanders(s *system, tr *tracer, out *measured) error {
	tb := tr.thread()
	if !w.skipPosts {
		buf := make([]blktrace.Event, postBatch)
		var lat samples
		for i := 0; i < bystanderPosts; i++ {
			st := s.streams[i%len(s.streams)]
			l, err := s.httpPost(tb, -1, st, buf, time.Now())
			if err != nil {
				return err
			}
			lat.add(l)
			if err := s.checkDevice(st.id, st.submitted.Load()); err != nil {
				return err
			}
		}
		out.timing("http_ingest_p50_ms", lat)
	}
	if !w.skipProbes {
		first, start := s.probe.sent()+1, time.Now()
		for k := first; k < first+bystanderProbes || time.Since(start) < probeLap; k++ {
			if err := s.probe.post(tb, -1, time.Now()); err != nil {
				return err
			}
			sp := tb.begin(spanProbeWait, -1, int64(k))
			s.probe.await(k, probeTimeout)
			tb.end(sp, 1)
		}
		s.probeResults(out, first)
	}
	if !w.skipReads {
		if err := s.readLap(tb, out); err != nil {
			return err
		}
	}
	// Ship what the laps changed, so that the first fleet cycle's frame,
	// bystander or native, carries that cycle's change and nothing else.
	if _, err := s.syncRound(tb, -1); err != nil {
		return err
	}
	if !w.skipCycles {
		return s.fleetLoop(tb, func(i int) bool { return i < bystanderCycles }, out)
	}
	return nil
}
