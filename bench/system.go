package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/fleet"
	"daccor/internal/monitor"
	"daccor/internal/msr"
	"daccor/internal/realtime"
	"daccor/pkg/client"
)

// stream is one device's endless event source: a generated trace
// replayed lap after lap, each lap shifted in time by more than the
// transaction window so every lap yields the same transactions.
// Positions are claimed atomically, so two producers can share one
// device and still cover the stream exactly once.
type stream struct {
	id        string
	dev       *engine.Device
	events    []blktrace.Event
	lapSpan   int64
	pos       atomic.Uint64 // next unclaimed event of the endless stream
	submitted atomic.Uint64 // events handed to the system, by any path
}

// next claims the next len(dst) events of the endless stream and writes
// them into dst.
func (s *stream) next(dst []blktrace.Event) []blktrace.Event {
	pos, n := s.pos.Add(uint64(len(dst)))-uint64(len(dst)), uint64(len(s.events))
	for i := range dst {
		p := pos + uint64(i)
		dst[i] = s.events[p%n]
		dst[i].Time += int64(p/n) * s.lapSpan
	}
	return dst
}

// submit pushes the next len(buf) events through Engine.SubmitBatch.
func (s *stream) submit(tb *spanBuf, parent int, buf []blktrace.Event) error {
	s.next(buf)
	sp := tb.begin(spanSubmitBatch, parent, 0)
	err := s.dev.SubmitBatch(buf)
	tb.end(sp, int64(len(buf)))
	s.submitted.Add(uint64(len(buf)))
	return err
}

// pace holds a bulk feeder back while the device's queue is more than
// half full, so that seeding never overflows a drop-oldest ring.
func pace(dev *engine.Device) {
	for dev.Lag() > engine.DefaultQueueSize/2 {
		runtime.Gosched()
	}
}

// loopback is an HTTP server on a real 127.0.0.1 listener.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *loopback) close() {
	_ = l.srv.Close()
	<-l.done
}

// dialCounter counts watch connections, so reconnects made inside
// pkg/client (which exposes no counter) are visible from outside.
type dialCounter struct {
	next       http.RoundTripper
	watchDials atomic.Int64
}

func (d *dialCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Header.Get("Accept") == "text/event-stream" {
		d.watchDials.Add(1)
	}
	return d.next.RoundTrip(r)
}

// system is the whole deployment in one process: a collector engine
// behind the /v1 handler on loopback, a typed client with one watcher
// on the probe device, and an aggregator behind its own loopback
// handler fed by a sync client. Every workload builds all of it; the
// workload decides which parts carry the load.
type system struct {
	eng     *engine.Engine
	streams []*stream
	probe   *prober

	api       *loopback
	transport *http.Transport
	dials     *dialCounter
	cl        *client.Client

	agg    *fleet.Aggregator
	aggAPI *loopback
	aggCl  *client.Client
	sync   *fleet.SyncClient

	attempted, failed atomic.Int64

	// prefixSnap is the partitioned device's export after equivPrefix
	// events of the verification lap, kept for the P=2 ≡ P=1 check.
	prefixSnap core.Snapshot
	// Ledgers the phases append to: the deepest queue seen, open-loop
	// lateness, sync round reports, and how far the read mix and the
	// fleet cycle sequence have advanced.
	lagMax        atomic.Int64
	late          samples
	rounds        []fleet.RoundReport
	reads, cycles int
}

// op accounts one attempted operation; a non-nil error marks it failed.
func (s *system) op(err error) error {
	s.attempted.Add(1)
	if err != nil {
		s.failed.Add(1)
	}
	return err
}

// inputs are a workload's generated traces, built once per run from
// the seed alone.
type inputs struct {
	traces    [][]blktrace.Event // one per load device
	probeSeed []blktrace.Event
	gen       time.Duration // what generating them took; part of set-up
}

// generate builds one device's trace of n events from seed: subTraces
// independently generated pieces played one after the other. A single
// generated trace draws its hot groups' sizes once, and with them its
// per-event analysis cost (+-10 % from seed to seed); several pieces
// average that out, so a seed changes the input, not the workload.
func generate(name string, n int, seed int64) ([]blktrace.Event, error) {
	p, err := msr.ProfileByName(traceProfile)
	if err != nil {
		return nil, err
	}
	out := make([]blktrace.Event, 0, n)
	offset := int64(0)
	for j := int64(0); j < subTraces; j++ {
		g, err := p.Generate(n/subTraces, seed*subTraces+j)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", name, err)
		}
		for _, ev := range g.Trace.Events {
			ev.Time += offset
			out = append(out, ev)
		}
		offset = out[len(out)-1].Time + lapGap
	}
	return out, nil
}

func (w *workload) generate(seed int64) (*inputs, error) {
	start := time.Now()
	in := &inputs{traces: make([][]blktrace.Event, w.devices)}
	for i := range in.traces {
		var err error
		if in.traces[i], err = generate(w.name, w.traceLen, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	var err error
	in.probeSeed, err = generate("probe", probeSeedEvents, seed+int64(w.devices))
	in.gen = time.Since(start)
	return in, err
}

// engineOptions are charactld's defaults with a static window, so a
// trace's transactions do not depend on latency feedback.
func engineOptions(capacity, parts int, policy engine.Backpressure, reorder int) []engine.Option {
	return []engine.Option{
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(txWindow)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: capacity, PairCapacity: capacity}),
		engine.WithQueueSize(engine.DefaultQueueSize),
		engine.WithReorderBuffer(reorder),
		engine.WithPartitions(parts),
		engine.WithBackpressure(policy),
	}
}

// build constructs the system and seeds it: every load device gets the
// workload's verification lap, the probe device its trace prefix and
// probe repetitions, the aggregator a first full sync, and the watcher
// its first state. The result is live and idle.
func (w *workload) build(in *inputs) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	ids := make([]string, w.devices)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%02d", i)
	}
	opts := append(engineOptions(w.capacity, w.partitions, w.policy, engine.DefaultReorderBuffer),
		engine.WithDevices(append(ids, probeDevice)...))
	if sys.eng, err = engine.New(opts...); err != nil {
		return sys, err
	}
	for i, id := range ids {
		dev, err := sys.eng.Device(id)
		if err != nil {
			return sys, err
		}
		ev := in.traces[i]
		sys.streams = append(sys.streams, &stream{id: id, dev: dev, events: ev,
			lapSpan: ev[len(ev)-1].Time + lapGap})
	}

	if sys.api, err = serveLoopback(realtime.NewEngineHandler(sys.eng)); err != nil {
		return sys, err
	}
	sys.transport = &http.Transport{MaxIdleConnsPerHost: 2}
	sys.dials = &dialCounter{next: sys.transport}
	hc := &http.Client{Transport: sys.dials}
	sys.cl = client.New(sys.api.url, client.WithHTTPClient(hc))

	sys.agg = fleet.NewAggregator(fleet.Config{})
	if sys.aggAPI, err = serveLoopback(fleet.NewHandler(sys.agg)); err != nil {
		return sys, err
	}
	sys.aggCl = client.New(sys.aggAPI.url, client.WithHTTPClient(hc))
	if sys.sync, err = fleet.NewSyncClient(fleet.ClientConfig{
		Aggregator: sys.aggAPI.url, Collector: "bench", Engine: sys.eng, HTTPClient: hc,
	}); err != nil {
		return sys, err
	}

	if err = w.seed(sys); err != nil {
		return sys, err
	}
	if sys.probe, err = newProber(sys, in.probeSeed); err != nil {
		return sys, err
	}
	if err = sys.barrier(); err != nil {
		return sys, err
	}
	if _, err = sys.syncRound(nil, -1); err != nil {
		return sys, err
	}
	return sys, sys.probe.watch()
}

// close stops everything build started and waits for it to end.
func (s *system) close() {
	if s.probe != nil {
		s.probe.close()
	}
	if s.api != nil {
		s.api.close()
	}
	if s.eng != nil {
		s.eng.Stop()
	}
	if s.aggAPI != nil {
		s.aggAPI.close()
	}
	if s.agg != nil {
		s.agg.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
}

// eventsSubmitted totals events handed to the system on every device.
func (s *system) eventsSubmitted() uint64 {
	n := s.probe.submitted.Load()
	for _, st := range s.streams {
		n += st.submitted.Load()
	}
	return n
}

// barrier waits until every device has analyzed all it was given (the
// stats query is answered in-band, behind the queued events) and
// checks event conservation: submitted == analyzed + dropped. Dropped
// events count as failed operations.
func (s *system) barrier() error {
	for _, st := range s.streams {
		if err := s.checkDevice(st.id, st.submitted.Load()); err != nil {
			return err
		}
	}
	return s.checkDevice(probeDevice, s.probe.submitted.Load())
}

// checkDevice is the barrier on one device.
func (s *system) checkDevice(id string, submitted uint64) error {
	st, err := s.eng.DeviceStatsFor(id)
	if err != nil {
		return err
	}
	if got := st.Monitor.Events + st.Dropped; got != submitted {
		return fmt.Errorf("%s: conservation broken: submitted %d, analyzed %d + dropped %d",
			id, submitted, st.Monitor.Events, st.Dropped)
	}
	return nil
}

// lost reports events the engine shed (drop-oldest) on any device.
func (s *system) lost() (dropped uint64, err error) {
	st, err := s.eng.Stats()
	if err != nil {
		return 0, err
	}
	return st.TotalDropped(), nil
}

// syncRound runs one collector→aggregator round and checks that the
// aggregator applied every section it was sent.
func (s *system) syncRound(tb *spanBuf, parent int) (fleet.RoundReport, error) {
	sp := tb.begin(spanSyncNow, parent, 0)
	rep, err := s.sync.SyncNow(context.Background())
	tb.end(sp, int64(rep.Bytes))
	if err == nil && rep.Applied != rep.Sections {
		err = fmt.Errorf("sync round %d: applied %d of %d sections", rep.Seq, rep.Applied, rep.Sections)
	}
	return rep, s.op(err)
}

// prober drives the probe device: a reserved extent pair (P, Q) issued
// together, then a closer R one millisecond later that ends the
// transaction. Seeding repeats the pair until it outranks every trace
// pair, so each further probe k shows up at a watcher as "rank-1 pair
// has count >= base+k", and the time from the probe's due time to that
// state is the event→rule delay a subscriber feels.
type prober struct {
	sys       *system
	dev       *engine.Device
	submitted atomic.Uint64
	nextTime  int64 // timestamp of the next probe on the device's timeline

	watcher  *client.Watcher
	consumed chan struct{} // closed when the watch consumer exits
	epoch0   uint64        // device epoch when the watcher connected

	mu       sync.Mutex
	base     uint32      // pair count after seeding
	due      []time.Time // due[k-1] is probe k's due time
	seenAt   []time.Time // seenAt[k-1] is when the watcher saw it
	resolved int         // probes 1..resolved have been seen
	last     client.WatchState
	disorder int // states whose probe count went backwards or was not rank 1
	wake     chan struct{}
}

var (
	probeP    = blktrace.Extent{Block: 1 << 40, Len: 8}
	probeQ    = blktrace.Extent{Block: 1<<40 + 1024, Len: 8}
	probeR    = blktrace.Extent{Block: 1<<40 + 2048, Len: 8}
	probePair = blktrace.MakePair(probeP, probeQ)
)

// probeEvents writes one probe at device time t into dst[:3].
func probeEvents(dst []blktrace.Event, t int64) {
	dst[0] = blktrace.Event{Time: t, Op: blktrace.OpRead, Extent: probeP}
	dst[1] = blktrace.Event{Time: t + int64(time.Microsecond), Op: blktrace.OpRead, Extent: probeQ}
	dst[2] = blktrace.Event{Time: t + int64(time.Millisecond), Op: blktrace.OpRead, Extent: probeR}
}

func newProber(sys *system, seed []blktrace.Event) (*prober, error) {
	dev, err := sys.eng.Device(probeDevice)
	if err != nil {
		return nil, err
	}
	p := &prober{sys: sys, dev: dev, base: probeSeedReps, wake: make(chan struct{}, 1)}
	for i := 0; i < len(seed); i += bulkBatch {
		batch := seed[i:min(i+bulkBatch, len(seed))]
		pace(dev)
		if err := dev.SubmitBatch(batch); err != nil {
			return nil, err
		}
		p.submitted.Add(uint64(len(batch)))
	}
	p.nextTime = seed[len(seed)-1].Time + lapGap
	batch := make([]blktrace.Event, 3*64)
	for done := 0; done < probeSeedReps; {
		n := min(64, probeSeedReps-done)
		for i := 0; i < n; i++ {
			probeEvents(batch[3*i:], p.nextTime)
			p.nextTime += probeSpacing
		}
		pace(dev)
		if err := dev.SubmitBatch(batch[:3*n]); err != nil {
			return nil, err
		}
		p.submitted.Add(uint64(3 * n))
		done += n
	}
	return p, nil
}

// probeCount extracts the probe pair's count from a watch state; ok is
// false unless the probe pair is the state's rank-1 pair.
func probeCount(st client.WatchState) (count uint32, ok bool) {
	if len(st.Pairs) == 0 || st.Pairs[0].Pair != probePair {
		return 0, false
	}
	return st.Pairs[0].Count, true
}

// watch opens the SSE subscription and starts the consumer.
func (p *prober) watch() error {
	w, err := p.sys.cl.Watch(context.Background(), probeDevice, client.Query{Support: 1, Top: readTop})
	if err != nil {
		return err
	}
	p.watcher, p.consumed = w, make(chan struct{})
	if p.epoch0, err = p.sys.eng.Epoch(probeDevice); err != nil {
		return err
	}
	go func() {
		defer close(p.consumed)
		for st := range w.Events() {
			p.observe(st, time.Now())
		}
	}()
	return nil
}

// observe folds one delivered state into the probe ledger.
func (p *prober) observe(st client.WatchState, now time.Time) {
	p.mu.Lock()
	count, ok := probeCount(st)
	if prev, _ := probeCount(p.last); !ok || count < prev {
		p.disorder++
	}
	p.last = st
	for k := p.resolved + 1; ok && k <= len(p.due) && uint32(k) <= count-p.base; k++ {
		p.seenAt[k-1] = now
		p.resolved = k
	}
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// post sends the next probe over HTTP; due is when it was meant to go.
func (p *prober) post(tb *spanBuf, parent int, due time.Time) error {
	var evs [3]blktrace.Event
	probeEvents(evs[:], p.nextTime)
	p.nextTime += probeSpacing
	p.mu.Lock()
	p.due = append(p.due, due)
	p.seenAt = append(p.seenAt, time.Time{})
	k := len(p.due)
	p.mu.Unlock()
	sp := tb.begin(spanProbePost, parent, int64(k))
	_, err := p.sys.cl.SubmitEvents(context.Background(), probeDevice, evs[:])
	tb.end(sp, 3)
	if err == nil {
		p.submitted.Add(3)
	}
	return err
}

// await blocks until probes 1..k have been seen or the timeout passes.
func (p *prober) await(k int, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		done := p.resolved >= k
		p.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-p.wake:
		case <-deadline.C:
			return false
		}
	}
}

// latencies returns the event→rule delay of probes from..to (1-based,
// inclusive) and how many of them were never seen.
func (p *prober) latencies(from, to int) (lat samples, missed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := from; k <= to && k <= len(p.due); k++ {
		if p.seenAt[k-1].IsZero() {
			missed++
			continue
		}
		lat.add(p.seenAt[k-1].Sub(p.due[k-1]))
	}
	return lat, missed
}

// p95 is the 95th percentile over every probe of the run.
func (p *prober) p95() float64 {
	lat, _ := p.latencies(1, p.sent())
	return lat.sorted().quantile(0.95)
}

func (p *prober) sent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.due)
}

func (p *prober) close() {
	if p.watcher != nil {
		p.watcher.Close()
		<-p.consumed
	}
}

// finalState checks the watcher against the query route: once the
// device is idle, the last pushed state must equal what a GET returns.
func (p *prober) finalState() error {
	if !p.await(p.sent(), probeTimeout) {
		return errors.New("probe: watcher never saw the last probe")
	}
	rs, err := p.sys.cl.DeviceRules(context.Background(), probeDevice, client.Query{Support: 1, Top: readTop})
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.disorder > 0 {
		return fmt.Errorf("probe: %d watch states out of order or without the probe pair at rank 1", p.disorder)
	}
	if !slices.Equal(p.last.Rules, rs.Rules) {
		return fmt.Errorf("probe: watcher's last state (%d rules, epoch %s) differs from GET (%d rules)",
			len(p.last.Rules), p.last.Epoch, len(rs.Rules))
	}
	return nil
}
