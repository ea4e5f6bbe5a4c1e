package soak

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/fleet"
	"daccor/internal/monitor"
	"daccor/internal/obs"
	"daccor/internal/realtime"
	"daccor/internal/workload"
	"daccor/pkg/client"
)

// Result is what one soak run measured. Violations is empty when every
// SLO held.
type Result struct {
	Devices         int
	Partitions      int
	EventsSubmitted uint64
	EventsDropped   uint64
	HTTPEvents      uint64
	Elapsed         time.Duration

	// ReorderLate and ReorderLost sum the reordering-buffer counters
	// (daccor_engine_reorder_{late,lost}_total) across every device
	// still registered at run end — late releases behind an
	// already-released timestamp, and events shed before the buffer
	// under DropOldest.
	ReorderLate uint64
	ReorderLost uint64

	SubmitP99     time.Duration
	SubmitSamples uint64
	HTTPSubmitP99 time.Duration
	HTTPSamples   uint64

	HeapBaseline      uint64
	HeapFinal         uint64
	GoroutineBaseline int
	GoroutineFinal    int
	SeriesBaseline    int
	SeriesFinal       int

	// Fleet topology accounting (Config.FleetSync > 0): sync rounds
	// completed, the worst aggregator-observed sync age at any sample
	// point, the aggregator read-path sample counts (reads must stay
	// 200 no matter what the run injects), and whether the mirror
	// converged on the engine's merged snapshot once the load stopped.
	FleetSyncRounds uint64
	FleetMaxSyncAge time.Duration
	FleetReads      uint64
	FleetReadErrors uint64
	FleetConverged  bool

	ChurnCycles     int
	ChurnErrors     int
	ChurnLastError  string
	BadWatchEnds    int
	PanicsInjected  int
	WatchDeliveries uint64
	StalledWatchers int
	MaxWatchGap     time.Duration
	FleetDeliveries uint64
	Queries         uint64

	TimedOut   bool
	Violations []string
}

// HeapGrowth is live-heap growth from the post-warmup baseline to
// after shutdown (zero when the final heap is smaller).
func (r *Result) HeapGrowth() uint64 {
	if r.HeapFinal <= r.HeapBaseline {
		return 0
	}
	return r.HeapFinal - r.HeapBaseline
}

// DropPct is shed events as a percentage of submitted events.
func (r *Result) DropPct() float64 {
	if r.EventsSubmitted == 0 {
		return 0
	}
	return 100 * float64(r.EventsDropped) / float64(r.EventsSubmitted)
}

// ReorderLatePct is late reordering-buffer releases as a percentage of
// submitted events.
func (r *Result) ReorderLatePct() float64 {
	if r.EventsSubmitted == 0 {
		return 0
	}
	return 100 * float64(r.ReorderLate) / float64(r.EventsSubmitted)
}

// deviceID names the i-th tenant.
func deviceID(i int) string { return fmt.Sprintf("vol-%04d", i) }

// streamKinds rotates workload shapes across the fleet so the run
// exercises every correlation kind.
var streamKinds = []workload.Kind{workload.OneToOne, workload.OneToMany, workload.ManyToMany}

// seriesSlack is how many metric series may legitimately appear after
// the baseline snapshot (late-materializing HTTP route/status series).
// A device-series leak under churn is an order of magnitude larger.
const seriesSlack = 16

// Run executes one soak per cfg and reports the measured Result. logf
// (nil for silent) receives coarse progress lines. The returned error
// covers setup failures only; SLO violations land in
// Result.Violations so the caller can both report and gate.
func Run(cfg Config, logf func(format string, args ...any)) (*Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts := cfg.Partitions
	if parts == 0 {
		parts = 1
	}
	res := &Result{Devices: cfg.Devices, Partitions: parts, GoroutineBaseline: runtime.NumGoroutine()}

	ckptDir, err := os.MkdirTemp("", "daccor-soak-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	store, err := checkpoint.Open(checkpoint.Config{Dir: ckptDir, Keep: 2})
	if err != nil {
		return nil, err
	}

	// Crash injection: the process hook counts analyzed events and
	// panics the worker that crosses each threshold — a different,
	// schedule-dependent victim each time, which is the point. Each
	// threshold is crossed exactly once (the counter is monotone), so
	// each injection fires exactly once.
	var processed atomic.Uint64
	var panicsFired atomic.Uint32
	thresholds := make([]uint64, cfg.Panics)
	for i := range thresholds {
		thresholds[i] = cfg.Events * uint64(i+1) / uint64(cfg.Panics+2)
	}
	hook := func(string, blktrace.Event) {
		n := processed.Add(1)
		idx := panicsFired.Load()
		if int(idx) < len(thresholds) && n == thresholds[idx] {
			panicsFired.Store(idx + 1)
			panic(fmt.Sprintf("soak: injected crash %d/%d at %d analyzed events", idx+1, len(thresholds), n))
		}
	}

	reg := obs.NewRegistry()
	eng, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(cfg.Window)}),
		// Modest per-device synopsis caps: fleet-wide merges walk
		// Devices x PairCapacity entries, and the fleet watch/query
		// paths keep exercising them throughout the run.
		engine.WithAnalyzer(core.Config{ItemCapacity: 256, PairCapacity: 256}),
		engine.WithQueueSize(cfg.QueueSize),
		engine.WithPartitions(parts),
		engine.WithBackpressure(engine.DropOldest),
		engine.WithMetrics(reg),
		engine.WithSupervisor(engine.SupervisorConfig{
			BackoffBase: 5 * time.Millisecond,
			BackoffCap:  100 * time.Millisecond,
			Probation:   64,
		}),
		engine.WithCheckpoints(store, cfg.CheckpointEvery),
		engine.WithProcessHook(hook),
	)
	if err != nil {
		return nil, err
	}
	defer eng.Stop()
	for i := 0; i < cfg.Devices; i++ {
		if err := eng.Register(deviceID(i)); err != nil {
			return nil, err
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: realtime.NewEngineHandler(eng)}
	go srv.Serve(ln)
	defer srv.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.Watchers + 4}
	cl := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: transport}))

	// Fleet topology: the engine doubles as a collector pushing delta
	// syncs to an in-process aggregator over real HTTP; a sampler
	// keeps reading the aggregator's merged surface and recording the
	// staleness it reports.
	var (
		agg     *fleet.Aggregator
		syncCl  *fleet.SyncClient
		aggSrv  *http.Server
		aggURL  string
		fReads  atomic.Uint64
		fErrs   atomic.Uint64
		fMaxAge atomic.Int64
	)
	if cfg.FleetSync > 0 {
		lease := 5 * cfg.FleetSync
		if lease < 2*time.Second {
			lease = 2 * time.Second
		}
		agg = fleet.NewAggregator(fleet.Config{Lease: lease, FailAfter: cfg.MaxDuration})
		aln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		aggSrv = &http.Server{Handler: fleet.NewHandler(agg)}
		go aggSrv.Serve(aln)
		defer aggSrv.Close()
		aggURL = "http://" + aln.Addr().String()
		if syncCl, err = fleet.NewSyncClient(fleet.ClientConfig{
			Aggregator: aggURL,
			Collector:  "soak-collector",
			Engine:     eng,
			Interval:   cfg.FleetSync,
		}); err != nil {
			return nil, err
		}
		syncCl.Start()
	}

	// runCtx governs producers and doubles as the wedge watchdog;
	// auxCtx governs the observers (watchers, queries, churner), which
	// are shut down after the producers finish.
	runCtx, cancelRun := context.WithTimeout(context.Background(), cfg.MaxDuration)
	defer cancelRun()
	auxCtx, cancelAux := context.WithCancel(context.Background())
	defer cancelAux()

	var submitted, httpEvents atomic.Uint64
	start := time.Now()

	// Producers: cfg.Feeders engine-path feeders plus one HTTP-path
	// feeder, each owning a disjoint slice of the fleet. The per-batch
	// pace stretches the run to at least MinDuration, so the observers
	// act mid-stream instead of racing a burst.
	producers := cfg.Feeders + 1
	var pace time.Duration
	if cfg.MinDuration > 0 {
		pace = time.Duration(uint64(cfg.MinDuration) * uint64(cfg.Batch) * uint64(producers) / cfg.Events)
	}
	recs := make([]*latRecorder, producers)
	var feedWg sync.WaitGroup
	for p := 0; p < producers; p++ {
		rec := &latRecorder{}
		recs[p] = rec
		var ids []string
		for i := p; i < cfg.Devices; i += producers {
			ids = append(ids, deviceID(i))
		}
		feedWg.Add(1)
		go func(p int, ids []string, rec *latRecorder) {
			defer feedWg.Done()
			feed(runCtx, feedEnv{
				cfg: cfg, eng: eng, cl: cl, ids: ids, rec: rec, pace: pace,
				http: p == cfg.Feeders, submitted: &submitted, httpEvents: &httpEvents,
			})
		}(p, ids, rec)
	}

	// Observers. The churner is not on auxWg: it finishes its cycle
	// count on its own (all thresholds sit below the event target) and
	// is only aborted by auxCtx if it wedges.
	var auxWg sync.WaitGroup
	ch := &churner{cfg: cfg, eng: eng, cl: cl, submitted: &submitted}
	churnDone := make(chan struct{})
	go func() { defer close(churnDone); ch.run(auxCtx) }()

	ws := &watchSet{cfg: cfg, cl: cl, logf: logf}
	for i := 0; i < cfg.Watchers; i++ {
		dev := "" // fleet route
		if i > 0 {
			dev = deviceID(cfg.Devices - i) // stable back-of-fleet devices
		}
		auxWg.Add(1)
		go func(dev string) { defer auxWg.Done(); ws.watch(auxCtx, dev) }(dev)
	}

	var queries atomic.Uint64
	auxWg.Add(1)
	go func() {
		defer auxWg.Done()
		queryLoop(auxCtx, cl, deviceID(cfg.Devices-cfg.Watchers), &queries)
	}()

	if agg != nil {
		auxWg.Add(1)
		go func() {
			defer auxWg.Done()
			fleetSampleLoop(auxCtx, agg, aggURL, &fReads, &fErrs, &fMaxAge)
		}()
	}

	// Post-warmup baselines: heap after 10% of the load (every arena,
	// queue, and watcher is live by then) and metric-series
	// cardinality once the HTTP routes have materialized their series.
	warm := cfg.Events / 10
	for submitted.Load() < warm && runCtx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	res.HeapBaseline = measureHeap()
	res.SeriesBaseline = reg.NumSeries()
	logf("soak: warmed up at %d events, heap baseline %d MiB, %d series",
		submitted.Load(), res.HeapBaseline>>20, res.SeriesBaseline)

	feedWg.Wait()
	res.Elapsed = time.Since(start)
	res.TimedOut = runCtx.Err() != nil && submitted.Load() < cfg.Events
	// Give the churner a grace period to finish any in-flight cycle
	// (its thresholds are all below the event target, so it normally
	// finished long ago), then shut the observers down.
	select {
	case <-churnDone:
	case <-time.After(30 * time.Second):
	}
	cancelAux()
	auxWg.Wait()
	<-churnDone

	// Fleet teardown: stop the periodic loop, then drive final rounds
	// until the aggregator's merged mirror is exactly the engine's
	// merged snapshot — the convergence obligation of the whole sync
	// protocol, asserted while the engine is still live.
	if syncCl != nil {
		syncCl.Close()
		res.FleetConverged = settleFleet(eng, agg, syncCl)
		res.FleetSyncRounds = syncCl.Stats().Rounds
		res.FleetMaxSyncAge = time.Duration(fMaxAge.Load())
		res.FleetReads = fReads.Load()
		res.FleetReadErrors = fErrs.Load()
		agg.Close()
		aggSrv.Close()
	}

	// Account drops before Stop: registered shards via Stats, churned
	// shards via the counters the churner saved before each
	// Unregister.
	res.EventsSubmitted = submitted.Load()
	res.HTTPEvents = httpEvents.Load()
	if st, err := eng.Stats(); err == nil {
		res.EventsDropped = st.TotalDropped() + ch.droppedChurned
	}
	res.SeriesFinal = reg.NumSeries()
	res.ReorderLate = sumCounter(reg, engine.MetricReorderLate)
	res.ReorderLost = sumCounter(reg, engine.MetricReorderLost)
	res.ChurnCycles = ch.completed
	res.ChurnErrors = ch.errors
	if ch.lastErr != nil {
		res.ChurnLastError = ch.lastErr.Error()
	}
	res.BadWatchEnds = ch.badEnds
	res.PanicsInjected = int(panicsFired.Load())
	res.WatchDeliveries = ws.deliveries.Load()
	res.StalledWatchers = ws.stalled
	res.MaxWatchGap = ws.maxGap
	res.FleetDeliveries = ws.fleetDeliveries
	res.Queries = queries.Load()

	engineRec := &latRecorder{}
	for _, rec := range recs[:cfg.Feeders] {
		engineRec.merge(rec)
	}
	httpRec := recs[cfg.Feeders]
	res.SubmitP99 = time.Duration(engineRec.quantile(0.99))
	res.SubmitSamples = engineRec.count
	res.HTTPSubmitP99 = time.Duration(httpRec.quantile(0.99))
	res.HTTPSamples = httpRec.count

	eng.Stop() // final checkpoint flush; idempotent with the defer
	srv.Close()
	transport.CloseIdleConnections()
	res.HeapFinal = measureHeap()
	res.GoroutineFinal = settleGoroutines(res.GoroutineBaseline + cfg.SLO.MaxGoroutineGrowth)
	logf("soak: %d events in %v (%.0f ev/s), %d dropped, %d churns, %d panics, %d watch deliveries",
		res.EventsSubmitted, res.Elapsed.Round(time.Millisecond),
		float64(res.EventsSubmitted)/res.Elapsed.Seconds(),
		res.EventsDropped, res.ChurnCycles, res.PanicsInjected, res.WatchDeliveries)

	res.evaluate(cfg)
	return res, nil
}

// feedEnv is one producer's world.
type feedEnv struct {
	cfg        Config
	eng        *engine.Engine
	cl         *client.Client
	ids        []string
	rec        *latRecorder
	pace       time.Duration
	http       bool
	submitted  *atomic.Uint64
	httpEvents *atomic.Uint64
}

// feed pushes batches round-robin across its devices until the global
// target is reached. Each tenant gets its own deterministic stream
// (seeded per (cfg.Seed, tenant)); a device that is churned away
// mid-round is skipped until it returns. Producers pace on queue lag
// rather than a fixed rate: full-throttle while the worker keeps up,
// brief backoff when it falls behind, and after a bounded wait the
// batch is submitted anyway so a genuinely wedged worker surfaces as
// drops (and fails the drop SLO) instead of stalling the run.
func feed(ctx context.Context, env feedEnv) {
	streams := make(map[string]*workload.Stream, len(env.ids))
	for i, id := range env.ids {
		st, err := workload.NewStream(workload.SyntheticConfig{
			Kind: streamKinds[i%len(streamKinds)],
			Seed: workload.TenantSeed(env.cfg.Seed, id),
		})
		if err != nil {
			return // validated config cannot fail here
		}
		streams[id] = st
	}
	handles := make(map[string]*engine.Device, len(env.ids))
	buf := make([]blktrace.Event, env.cfg.Batch)
	for ctx.Err() == nil && env.submitted.Load() < env.cfg.Events {
		for _, id := range env.ids {
			if env.submitted.Load() >= env.cfg.Events {
				return
			}
			if env.pace > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(env.pace):
				}
			} else if ctx.Err() != nil {
				return
			}
			batch := streams[id].NextBatch(buf)
			if env.http {
				t0 := time.Now()
				n, err := env.cl.SubmitEvents(ctx, id, batch)
				env.rec.record(time.Since(t0).Nanoseconds())
				if err == nil {
					env.submitted.Add(uint64(n))
					env.httpEvents.Add(uint64(n))
				}
				continue
			}
			d := handles[id]
			if d == nil {
				var err error
				if d, err = env.eng.Device(id); err != nil {
					continue // churned away; retry next round
				}
				handles[id] = d
			}
			for try := 0; try < 5 && d.Lag() > env.cfg.QueueSize/2; try++ {
				time.Sleep(200 * time.Microsecond)
			}
			t0 := time.Now()
			err := d.SubmitBatch(batch)
			env.rec.record(time.Since(t0).Nanoseconds())
			if err != nil {
				delete(handles, id) // stale after churn or failure; re-resolve
				continue
			}
			env.submitted.Add(uint64(len(batch)))
		}
	}
}

// churner cycles tenants out of and back into the fleet while load is
// flowing: watch the victim, Unregister over HTTP, require the
// watcher's terminal end event, then re-Register (which restores the
// tenant's checkpoint). Cycles are spread evenly across the run by
// submitted-event thresholds.
type churner struct {
	cfg       Config
	eng       *engine.Engine
	cl        *client.Client
	submitted *atomic.Uint64

	completed      int
	errors         int
	lastErr        error
	badEnds        int
	droppedChurned uint64
}

func (c *churner) run(ctx context.Context) {
	cycles := c.cfg.churnCycles()
	for k := 0; k < cycles; k++ {
		// Spread cycles across the first 90% of the load, so the last
		// ones still run against live traffic instead of racing the
		// shutdown grace period.
		target := c.cfg.Events * uint64(k+1) * 9 / (10 * uint64(cycles+1))
		for c.submitted.Load() < target {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		victim := deviceID(k)
		w, werr := c.cl.Watch(ctx, victim, client.Query{Support: 1})
		if n, err := c.eng.Dropped(victim); err == nil {
			c.droppedChurned += n
		}
		if err := c.cl.Unregister(ctx, victim); err != nil {
			c.errors++
			c.lastErr = fmt.Errorf("unregister %s: %w", victim, err)
			if werr == nil {
				w.Close()
			}
			continue
		}
		if werr == nil {
			for range w.Events() {
				// drain until the terminal end closes the channel
			}
			var end *client.WatchEndError
			if err := w.Err(); !errors.As(err, &end) {
				c.badEnds++
			}
			w.Close()
		}
		if err := c.eng.Register(victim); err != nil {
			c.errors++
			c.lastErr = fmt.Errorf("re-register %s: %w", victim, err)
			continue
		}
		c.completed++
	}
}

// watchSet holds the long-lived SSE watchers and their liveness
// metrics: total deliveries, the worst gap between consecutive
// deliveries on any one device stream, the fleet stream's deliveries,
// and how many streams never delivered.
type watchSet struct {
	cfg  Config
	cl   *client.Client
	logf func(format string, args ...any)

	deliveries atomic.Uint64

	mu              sync.Mutex
	maxGap          time.Duration
	fleetDeliveries uint64
	stalled         int
}

func (s *watchSet) watch(ctx context.Context, dev string) {
	// Paced deliveries: at fleet scale an unpaced watcher makes the
	// server recompute the merged state on every advance of any
	// device, which on small CI machines starves the ingest path. The
	// fleet stream's state is a full merge across the fleet — tens of
	// CPU-seconds per delivery at 256 devices under -race on one core
	// — so it gets a long interval to keep its duty cycle low, and its
	// gap is not tracked: per-device streams are the liveness signal,
	// the fleet stream is the merge-path coverage.
	q := client.Query{Support: 2, Top: 8, Interval: 250 * time.Millisecond}
	if dev == "" {
		q = client.Query{Support: 5, Top: 8, Interval: 30 * time.Second}
	}
	w, err := s.cl.Watch(ctx, dev, q)
	if err != nil {
		s.mu.Lock()
		s.stalled++
		s.mu.Unlock()
		return
	}
	defer w.Close()
	var gap time.Duration
	n := 0
	last := time.Now()
	for range w.Events() {
		now := time.Now()
		if d := now.Sub(last); d > gap {
			gap = d
		}
		last = now
		n++
		s.deliveries.Add(1)
	}
	name := dev
	if name == "" {
		name = "fleet"
	}
	s.logf("soak: watcher %s: %d deliveries, max gap %v", name, n, gap.Round(time.Millisecond))
	s.mu.Lock()
	if dev == "" {
		s.fleetDeliveries += uint64(n)
	} else if gap > s.maxGap {
		s.maxGap = gap
	}
	if n == 0 {
		s.stalled++
	}
	s.mu.Unlock()
}

// queryLoop keeps read traffic flowing against a stable device and the
// fleet routes for the whole run, counting the reads that succeed.
// Errors are expected, not fatal: a 503 from /v1/healthz during a
// crash-restart probation window is the health gate doing its job.
func queryLoop(ctx context.Context, cl *client.Client, dev string, ok *atomic.Uint64) {
	q := client.Query{Support: 2, Top: 8}
	for i := 0; ctx.Err() == nil; i++ {
		var err error
		switch i % 4 {
		case 0:
			_, err = cl.Stats(ctx)
		case 1:
			_, err = cl.DeviceSnapshot(ctx, dev, q)
		case 2:
			_, err = cl.FleetRules(ctx, q)
		case 3:
			_, err = cl.Health(ctx)
		}
		if err == nil {
			ok.Add(1)
		} else if ctx.Err() != nil {
			return
		}
		// A multi-second spacing keeps read traffic flowing all run
		// while bounding how often the expensive fleet merge (case 2)
		// runs on a small CI machine.
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Second):
		}
	}
}

// fleetSampleLoop keeps the aggregator's read surface hot and records
// the staleness it serves: it reads the merged snapshot over HTTP
// (counting anything but a 200 as an error — degraded must never mean
// 5xx) and samples the aggregator's reported max sync age.
func fleetSampleLoop(ctx context.Context, agg *fleet.Aggregator, base string, ok, errs *atomic.Uint64, maxAge *atomic.Int64) {
	hc := &http.Client{Timeout: 15 * time.Second}
	for ctx.Err() == nil {
		if age := int64(agg.MaxSyncAge()); age > maxAge.Load() {
			maxAge.Store(age)
		}
		resp, err := hc.Get(base + "/v1/snapshot?support=2&top=8")
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			errs.Add(1)
		case resp.StatusCode == http.StatusOK:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok.Add(1)
		default:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			errs.Add(1)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
}

// settleFleet drives final sync rounds until the aggregator's merged
// mirror is DeepEqual to the engine's merged snapshot — the exact
// single-process answer — bounded so a wedged sync path surfaces as a
// convergence violation instead of hanging the run.
func settleFleet(eng *engine.Engine, agg *fleet.Aggregator, sc *fleet.SyncClient) bool {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := sc.SyncNow(ctx)
		cancel()
		if err == nil {
			want, werr := eng.MergedSnapshot(0)
			if werr == nil && reflect.DeepEqual(agg.MergedSnapshot(0), want) {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}

// sumCounter sums one metric's value across every label combination in
// the registry's Prometheus exposition (devices churned away mid-run
// took their series with them, so the sum covers the surviving fleet).
func sumCounter(reg *obs.Registry, name string) uint64 {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return 0
	}
	var total float64
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (!strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ")) {
			continue // comment line or a longer metric sharing the prefix
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				total += v
			}
		}
	}
	return uint64(total)
}

// measureHeap forces a collection and returns live heap bytes.
func measureHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// settleGoroutines waits (bounded) for the goroutine count to fall to
// target — shutdown is asynchronous at the edges (HTTP keepalives,
// watcher run loops) — and returns the final count.
func settleGoroutines(target int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= target || time.Now().After(deadline) {
			return n
		}
		time.Sleep(50 * time.Millisecond)
	}
}
