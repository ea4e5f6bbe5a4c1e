// Command scenario closes the paper's loop end to end and measures
// what the closed loop buys:
//
//	replayed workload → engine ingest (HTTP) → /v1/watch push stream
//	    → live prefetcher + live stream assigner → simulated device
//
// A synthetic trace with planted read and write correlations is
// replayed twice over identical cache/FTL/device simulations:
//
//   - online: events are ingested into the collection engine over the
//     v1 API while a /v1/watch SSE subscription pushes each new rule
//     state into a cache.RulePrefetcher (reads) and an
//     ftl.RuleStreams assigner (writes) — no polling anywhere.
//   - baseline: the same replay with no online rules (demand-only LRU,
//     single-stream SSD).
//
// Both runs share a warmup segment (excluded from measurement; the
// online run waits until the watch stream has delivered a non-empty
// rule set). For the measured segment the command prints one stderr
// line comparing the two runs' cache hit rate, SSD write
// amplification and mean simulated read latency.
//
// The command exits non-zero if the online cache hit rate is not
// strictly better than the baseline — the closed loop must pay for
// itself. That exit status is `make scenario-check`.
//
//	scenario [-quick] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/cache"
	"daccor/internal/core"
	"daccor/internal/device"
	"daccor/internal/engine"
	"daccor/internal/ftl"
	"daccor/internal/monitor"
	"daccor/internal/realtime"
	"daccor/internal/workload"
	"daccor/pkg/client"
)

const deviceID = "vol0"

// scenarioConfig sizes one scenario run.
type scenarioConfig struct {
	occurrences int
	seed        int64
	// warmFrac is the leading fraction of the trace used to learn
	// rules before measurement starts.
	warmFrac float64
	// ruleWait bounds how long the online run waits for the watch
	// stream to deliver its first non-empty rule set.
	ruleWait time.Duration
}

func defaultConfig(quick bool, seed int64) scenarioConfig {
	cfg := scenarioConfig{
		occurrences: 6000,
		seed:        seed,
		warmFrac:    0.3,
		ruleWait:    30 * time.Second,
	}
	if quick {
		cfg.occurrences = 1500
	}
	return cfg
}

// generate builds the default replayed workload: one-to-one planted
// correlations (half reading, half writing), Poisson noise with a
// write fraction. The noise is dense relative to the correlation
// interarrival so the read cache is flushed between group recurrences
// — exactly the regime where semantic prefetch beats plain LRU.
func generate(cfg scenarioConfig) (*workload.Synthetic, error) {
	return workload.Generate(workload.SyntheticConfig{
		Kind:               workload.OneToOne,
		Occurrences:        cfg.occurrences,
		Correlations:       8,
		WriteGroups:        4,
		NoiseWriteFrac:     0.15,
		CorrelationMeanGap: 200 * time.Millisecond,
		NoiseMeanGap:       25 * time.Millisecond,
		Seed:               cfg.seed,
	})
}

// Simulation parameters shared by both runs.
const (
	cacheCapacity = 8
	ssdStreams    = 4
	ssdEUs        = 64
	ssdPagesPerEU = 32
	cacheHitNs    = 5_000 // served from DRAM cache: 5 µs
)

// sim is one replay target: cache + prefetcher, SSD + assigner,
// latency-model device.
type sim struct {
	cache    *cache.Cache
	prefetch cache.Prefetcher
	ssd      *ftl.SSD
	assign   ftl.StreamAssigner
	dev      *device.Device
	// logicalPages folds the trace's sparse block space onto the
	// simulated SSD's logical capacity.
	logicalPages uint64

	readLatencyNs uint64
	reads         uint64
}

func newSim(seed int64, prefetch cache.Prefetcher, assign ftl.StreamAssigner) (*sim, error) {
	c, err := cache.New(cacheCapacity)
	if err != nil {
		return nil, err
	}
	ssd, err := ftl.NewSSD(ftl.SSDConfig{EUs: ssdEUs, PagesPerEU: ssdPagesPerEU, Streams: ssdStreams})
	if err != nil {
		return nil, err
	}
	dev, err := device.New(device.NVMeSSD(), seed)
	if err != nil {
		return nil, err
	}
	logical := uint64(ssd.LogicalCapacityPages()) * 9 / 10
	return &sim{cache: c, prefetch: prefetch, ssd: ssd, assign: assign, dev: dev, logicalPages: logical}, nil
}

// replay runs one event through the simulation. Reads go through the
// cache (a miss pays the simulated device's read latency, a hit the
// DRAM cost) and trigger the prefetcher; writes are folded onto the
// SSD's logical space and placed by the stream assigner, keyed on the
// *original* extent — the address the characterizer learned.
func (s *sim) replay(ev blktrace.Event, measure bool) error {
	if ev.Op == blktrace.OpRead {
		hit := s.cache.Access(ev.Extent)
		if measure {
			s.reads++
			if hit {
				s.readLatencyNs += cacheHitNs
			} else {
				s.readLatencyNs += uint64(s.dev.ServiceTime(ev.Op, ev.Extent))
			}
		}
		for _, p := range s.prefetch.SuggestFor(ev.Extent) {
			s.cache.Prefetch(p)
		}
		return nil
	}
	stream := s.assign.Assign(ev.Extent)
	folded := blktrace.Extent{
		Block: (ftl.PageOf(ev.Extent.Block) % s.logicalPages) * ftl.BlocksPerPage,
		Len:   ev.Extent.Len,
	}
	return s.ssd.WriteExtent(folded, stream)
}

// meanReadLatencyNs is the measured segment's average simulated read
// latency (cache hits at DRAM cost, misses at device cost).
func (s *sim) meanReadLatencyNs() float64 {
	if s.reads == 0 {
		return 0
	}
	return float64(s.readLatencyNs) / float64(s.reads)
}

// runResult is one replay's measured-segment numbers.
type runResult struct {
	cache         cache.Stats
	ssd           ftl.SSDStats
	meanReadNs    float64
	ruleUpdates   uint64
	streamUpdates uint64
}

func (r runResult) hitRate() float64 { return r.cache.HitRate() }

// statsDelta subtracts the warmup's cache counters so only the
// measured segment is reported.
func statsDelta(after, before cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:          after.Hits - before.Hits,
		Misses:        after.Misses - before.Misses,
		Prefetches:    after.Prefetches - before.Prefetches,
		PrefetchHits:  after.PrefetchHits - before.PrefetchHits,
		PrefetchWaste: after.PrefetchWaste - before.PrefetchWaste,
	}
}

// runBaseline replays the trace with no online rules: demand-only LRU
// and the single-append-point SSD.
func runBaseline(cfg scenarioConfig, syn *workload.Synthetic) (runResult, error) {
	s, err := newSim(cfg.seed+1, cache.NonePrefetcher{}, ftl.SingleStream{})
	if err != nil {
		return runResult{}, err
	}
	events := syn.Trace.Events
	warm := int(float64(len(events)) * cfg.warmFrac)
	for _, ev := range events[:warm] {
		if err := s.replay(ev, false); err != nil {
			return runResult{}, err
		}
	}
	pre := s.cache.Stats()
	s.ssd.ResetCounters()
	for _, ev := range events[warm:] {
		if err := s.replay(ev, true); err != nil {
			return runResult{}, err
		}
	}
	return runResult{
		cache:      statsDelta(s.cache.Stats(), pre),
		ssd:        s.ssd.Stats(),
		meanReadNs: s.meanReadLatencyNs(),
	}, nil
}

// runOnline replays the trace through the full closed loop: events are
// ingested into a live engine over HTTP, and a /v1/watch subscription
// pushes every rule-state advance into the prefetcher and stream
// assigner while the replay runs.
func runOnline(cfg scenarioConfig, syn *workload.Synthetic) (runResult, error) {
	eng, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		engine.WithBackpressure(engine.Block),
		engine.WithQueueSize(4096),
		engine.WithDevices(deviceID),
	)
	if err != nil {
		return runResult{}, err
	}
	defer eng.Stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return runResult{}, err
	}
	srv := &http.Server{Handler: realtime.NewEngineHandler(eng)}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cli := client.New("http://" + ln.Addr().String())

	pref := cache.NewRulePrefetcher(2)
	asg, err := ftl.NewRuleStreams(ssdStreams)
	if err != nil {
		return runResult{}, err
	}

	// The push half of the loop: every watch delivery (one per epoch
	// advance, coalesced under load) re-indexes the prefetcher and
	// regroups the stream assigner.
	w, err := cli.Watch(ctx, deviceID, client.Query{Support: 3, Confidence: 0.6, Top: 1000})
	if err != nil {
		return runResult{}, err
	}
	defer w.Close()
	gotRules := make(chan struct{})
	go func() {
		signaled := false
		for st := range w.Events() {
			pref.SetRules(st.Rules)
			asg.SetPairs(st.Pairs)
			if !signaled && len(st.Rules) > 0 {
				close(gotRules)
				signaled = true
			}
		}
	}()

	s, err := newSim(cfg.seed+1, pref, asg)
	if err != nil {
		return runResult{}, err
	}

	events := syn.Trace.Events
	warm := int(float64(len(events)) * cfg.warmFrac)
	const batch = 512
	feed := func(evs []blktrace.Event, measure bool) error {
		for len(evs) > 0 {
			n := min(batch, len(evs))
			if _, err := cli.SubmitEvents(ctx, deviceID, evs[:n]); err != nil {
				return err
			}
			for _, ev := range evs[:n] {
				if err := s.replay(ev, measure); err != nil {
					return err
				}
			}
			evs = evs[n:]
		}
		return nil
	}
	if err := feed(events[:warm], false); err != nil {
		return runResult{}, err
	}
	// Measurement starts only once the loop is actually closed: the
	// watch stream must have pushed a usable rule set.
	select {
	case <-gotRules:
	case <-time.After(cfg.ruleWait):
		return runResult{}, fmt.Errorf("no rules learned within %v of warmup", cfg.ruleWait)
	}
	pre := s.cache.Stats()
	s.ssd.ResetCounters()
	if err := feed(events[warm:], true); err != nil {
		return runResult{}, err
	}
	return runResult{
		cache:         statsDelta(s.cache.Stats(), pre),
		ssd:           s.ssd.Stats(),
		meanReadNs:    s.meanReadLatencyNs(),
		ruleUpdates:   pref.Updates(),
		streamUpdates: asg.Updates(),
	}, nil
}

// run executes the full scenario and returns both results (exposed for
// the package test).
func run(cfg scenarioConfig) (online, baseline runResult, err error) {
	syn, err := generate(cfg)
	if err != nil {
		return runResult{}, runResult{}, err
	}
	baseline, err = runBaseline(cfg, syn)
	if err != nil {
		return runResult{}, runResult{}, err
	}
	online, err = runOnline(cfg, syn)
	if err != nil {
		return runResult{}, runResult{}, err
	}
	return online, baseline, nil
}

func main() {
	quick := flag.Bool("quick", false, "smaller workload (CI smoke run)")
	seed := flag.Int64("seed", 42, "workload generation seed")
	flag.Parse()

	cfg := defaultConfig(*quick, *seed)
	online, baseline, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "scenario: hit rate %.2f%% online vs %.2f%% baseline, WAF %.3f vs %.3f, mean read %.1fµs vs %.1fµs\n",
		online.hitRate()*100, baseline.hitRate()*100,
		online.ssd.WAF, baseline.ssd.WAF,
		online.meanReadNs/1e3, baseline.meanReadNs/1e3)
	if online.hitRate() <= baseline.hitRate() {
		fmt.Fprintln(os.Stderr, "scenario: FAIL — online rules did not improve the cache hit rate")
		os.Exit(1)
	}
}
