package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"daccor/internal/binio"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/obs"
)

// Sync client defaults.
const (
	DefaultSyncInterval = time.Second
	DefaultSyncTimeout  = 5 * time.Second
	DefaultMaxAttempts  = 4
	DefaultBackoffBase  = 100 * time.Millisecond
	DefaultBackoffCap   = 2 * time.Second
)

// Client metric families, registered in the engine's registry so the
// collector's /v1/metrics exposes its own sync health.
const (
	MetricSyncRounds   = "daccor_fleet_sync_rounds_total"
	MetricSyncFailures = "daccor_fleet_sync_failures_total"
	MetricSyncTxBytes  = "daccor_fleet_sync_tx_bytes_total"
	MetricSyncLastUnix = "daccor_fleet_sync_last_success_unixtime"
	MetricSyncBuild    = "daccor_fleet_sync_build_seconds"
	MetricSyncSkipped  = "daccor_fleet_sync_skipped_sections_total"
)

// ClientConfig configures a collector's sync client.
type ClientConfig struct {
	// Aggregator is the aggregatord base URL, e.g. "http://agg:9700".
	Aggregator string
	// Collector is this collector's fleet-wide identity.
	Collector string
	// Engine is the local engine whose devices are synced.
	Engine *engine.Engine
	// Interval paces the periodic rounds of Start; 0 selects
	// DefaultSyncInterval.
	Interval time.Duration
	// Timeout bounds each HTTP attempt; 0 selects DefaultSyncTimeout.
	Timeout time.Duration
	// MaxAttempts bounds the tries per round (first try included);
	// 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the jittered exponential
	// backoff between attempts — the supervisor's restart discipline
	// applied to the network.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HTTPClient overrides the transport; nil uses http.DefaultClient
	// with Timeout applied per request via context. Tests inject
	// flaky transports here.
	HTTPClient *http.Client
}

// ClientStats is the sync client's cumulative accounting. DeltaBytes
// counts bytes of frames carrying only deltas, removes, or heartbeats;
// FullBytes counts frames carrying at least one full snapshot — the
// split that shows delta sync earning its keep.
type ClientStats struct {
	Rounds     uint64
	Failures   uint64
	DeltaBytes uint64
	FullBytes  uint64
	LastSync   time.Time
}

// RoundReport describes one sync round, for tests and logs. Seq is the
// last frame's; Skipped counts sections too large for any frame.
type RoundReport struct {
	Seq          uint64
	Sections     int
	Deltas       int
	Fulls        int
	Removes      int
	Bytes        int
	Applied      int
	FullRequired int
	Skipped      int
}

// deviceSyncState is the client's book-keeping for one device: the
// exact snapshot and epoch the aggregator last acked (the delta base),
// and whether anti-entropy demands a full snapshot next round.
type deviceSyncState struct {
	epoch    uint64
	shadow   core.Snapshot
	needFull bool
}

// SyncClient pushes an engine's per-device synopses to an aggregator:
// content deltas against the last acked state when possible, full
// snapshots when the aggregator demands repair, removals when devices
// unregister, heartbeats when nothing changed.
type SyncClient struct {
	cfg  ClientConfig
	http *http.Client

	// instance identifies this client incarnation to the aggregator's
	// seq gate; drawn randomly at construction so a restarted collector
	// is not mistaken for its previous self replaying old frames.
	instance uint64

	mu     sync.Mutex
	states map[string]*deviceSyncState
	seq    uint64
	stats  ClientStats

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}

	rounds     *obs.Counter
	failures   *obs.Counter
	deltaBytes *obs.Counter
	fullBytes  *obs.Counter
	skipped    *obs.Counter
	lastUnix   *obs.Gauge
	build      *obs.Histogram
}

// NewSyncClient validates cfg and builds a client. Start launches the
// periodic loop; SyncNow runs single rounds under the caller's
// control.
func NewSyncClient(cfg ClientConfig) (*SyncClient, error) {
	if cfg.Aggregator == "" {
		return nil, errors.New("fleet: aggregator URL required")
	}
	if cfg.Collector == "" || len(cfg.Collector) > MaxCollectorID {
		return nil, fmt.Errorf("fleet: collector id must be 1..%d bytes", MaxCollectorID)
	}
	if cfg.Engine == nil {
		return nil, errors.New("fleet: engine required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultSyncInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultSyncTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	reg := cfg.Engine.Metrics()
	return &SyncClient{
		cfg:      cfg,
		http:     hc,
		instance: rand.Uint64(),
		states:   make(map[string]*deviceSyncState),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),

		rounds:     reg.Counter(MetricSyncRounds, "Completed fleet sync rounds."),
		failures:   reg.Counter(MetricSyncFailures, "Fleet sync rounds abandoned after all attempts failed."),
		deltaBytes: reg.Counter(MetricSyncTxBytes, "Fleet sync bytes sent, by frame kind.", obs.L("kind", "delta")),
		fullBytes:  reg.Counter(MetricSyncTxBytes, "Fleet sync bytes sent, by frame kind.", obs.L("kind", "full")),
		skipped:    reg.Counter(MetricSyncSkipped, "Device sections left out of sync rounds because alone they exceed the sync body limit."),
		lastUnix:   reg.Gauge(MetricSyncLastUnix, "Unix time of the last acked sync round."),
		build: reg.Histogram(MetricSyncBuild,
			"Time a sync round spends assembling its sections: exporting every device whose epoch moved and diffing it against the acked state, in seconds.",
			obs.LatencyBuckets()),
	}, nil
}

// Start launches the periodic sync loop. Failed rounds are counted and
// retried on the next tick — the engine keeps collecting regardless;
// a partition only ages the aggregator's mirror.
func (c *SyncClient) Start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					select {
					case <-c.stopCh:
						cancel()
					case <-ctx.Done():
					}
				}()
				_, _ = c.SyncNow(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the periodic loop and waits for an in-flight round to
// finish. It does not sync: callers wanting a final flush run SyncNow
// first, while the engine is still live.
func (c *SyncClient) Close() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	<-c.done
}

// Stats returns the cumulative sync accounting.
func (c *SyncClient) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// pendingSection pairs a wire section with the state to commit when
// the aggregator acks it.
type pendingSection struct {
	sec  Section
	snap core.Snapshot // the exact state sent (full or post-delta)
}

// SyncNow runs one sync round: diff every device against its acked
// shadow, pack the sections into frames within the aggregator's limits,
// and send each under its own seq (retrying with jittered backoff),
// committing its acks. A frame that exhausts its attempts ends the
// round, leaving its shadows and later frames' untouched — the next
// round diffs against the same base. A section too large for any frame
// is left out, counted and reported in the error.
func (c *SyncClient) SyncNow(ctx context.Context) (RoundReport, error) {
	c.mu.Lock()
	pending := c.sectionsLocked()
	c.mu.Unlock()

	frames, skipped := c.pack(pending)
	rep := RoundReport{Skipped: len(skipped)}
	c.skipped.Add(uint64(len(skipped)))
	for _, fr := range frames {
		if err := c.send(ctx, fr, &rep); err != nil {
			return rep, err
		}
	}
	c.mu.Lock()
	c.stats.Rounds++
	c.stats.LastSync = time.Now()
	last := c.stats.LastSync
	c.mu.Unlock()
	c.rounds.Inc()
	c.lastUnix.Set(float64(last.Unix()))
	if len(skipped) > 0 {
		return rep, fmt.Errorf("fleet: devices %q not synced: each section alone exceeds the %d-byte sync body limit", skipped, syncBodyLimit)
	}
	return rep, nil
}

// pack packs the pending sections, in order, into frames of at most
// syncBodyLimit bytes and MaxFrameSections sections — at least one, a
// heartbeat when nothing changed — encoding them only to count bytes.
// Sections that fit no frame are returned as skipped devices.
func (c *SyncClient) pack(pending []pendingSection) (frames [][]pendingSection, skipped []string) {
	// An encoding error leaves later sizes at 0; it recurs, and is
	// returned, when send encodes the frame.
	bw := binio.NewWriter(io.Discard)
	encodeHeader(bw, Frame{Collector: c.cfg.Collector})
	header, _ := bw.Flush()
	var cur []pendingSection
	size, end := header, header
	for _, p := range pending {
		start := end
		_ = encodeSection(bw, p.sec)
		end, _ = bw.Flush()
		n := end - start
		if header+n > int64(syncBodyLimit) {
			skipped = append(skipped, p.sec.Device)
			continue
		}
		if len(cur) == MaxFrameSections || size+n > int64(syncBodyLimit) {
			frames, cur, size = append(frames, cur), nil, header
		}
		cur = append(cur, p)
		size += n
	}
	return append(frames, cur), skipped
}

// send posts one frame of a round under the next seq and commits its
// acks, adding what it carried to rep.
func (c *SyncClient) send(ctx context.Context, secs []pendingSection, rep *RoundReport) error {
	c.mu.Lock()
	c.seq++
	f := Frame{Collector: c.cfg.Collector, Instance: c.instance, Seq: c.seq}
	c.mu.Unlock()
	full := false
	for _, p := range secs {
		f.Sections = append(f.Sections, p.sec)
		switch p.sec.Kind {
		case SectionFull:
			rep.Fulls++
			full = true
		case SectionDelta:
			rep.Deltas++
		case SectionRemove:
			rep.Removes++
		}
	}
	var body bytes.Buffer
	if err := EncodeFrame(&body, f); err != nil {
		return err
	}
	rep.Seq = f.Seq
	rep.Sections += len(secs)
	rep.Bytes += body.Len()

	res, err := c.post(ctx, body.Bytes())
	if err != nil {
		c.failures.Inc()
		c.mu.Lock()
		c.stats.Failures++
		if isClientError(err) {
			// The aggregator rejected the frame outright (or we cannot
			// even agree on the protocol). Retrying the same deltas
			// would loop; fall back to anti-entropy and resend
			// everything as full snapshots.
			for _, p := range secs {
				if st := c.states[p.sec.Device]; st != nil {
					st.needFull = true
				}
			}
		}
		c.mu.Unlock()
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	byDevice := make(map[string]Ack, len(res.Acks))
	for _, a := range res.Acks {
		byDevice[a.Device] = a
	}
	for _, p := range secs {
		ack, ok := byDevice[p.sec.Device]
		if !ok {
			// No ack for a section we sent: treat as unacked; the next
			// round re-diffs against the old shadow.
			continue
		}
		switch {
		case ack.Action == AckApplied && p.sec.Kind == SectionRemove:
			delete(c.states, p.sec.Device)
			rep.Applied++
		case ack.Action == AckApplied:
			c.states[p.sec.Device] = &deviceSyncState{epoch: p.sec.Epoch, shadow: p.snap}
			rep.Applied++
		default:
			st := c.states[p.sec.Device]
			if st == nil {
				st = &deviceSyncState{}
				c.states[p.sec.Device] = st
			}
			st.needFull = true
			rep.FullRequired++
		}
	}
	if full {
		c.stats.FullBytes += uint64(body.Len())
		c.fullBytes.Add(uint64(body.Len()))
	} else {
		c.stats.DeltaBytes += uint64(body.Len())
		c.deltaBytes.Add(uint64(body.Len()))
	}
	return nil
}

// sectionsLocked assembles the round's sections from the engine's
// current state. Devices whose export fails (restarting, failed) are
// skipped — their mirror just stays stale. Caller holds c.mu.
func (c *SyncClient) sectionsLocked() []pendingSection {
	start := time.Now()
	defer func() { c.build.Observe(time.Since(start).Seconds()) }()
	eng := c.cfg.Engine
	devices := eng.Devices()
	live := make(map[string]struct{}, len(devices))
	var pending []pendingSection
	for _, id := range devices {
		live[id] = struct{}{}
		st := c.states[id]
		full := st == nil || st.needFull
		snap, epoch, ok := c.export(id, st, full)
		if !ok {
			continue
		}
		if full {
			pending = append(pending, pendingSection{
				sec:  Section{Device: id, Kind: SectionFull, Epoch: epoch, Snap: snap},
				snap: snap,
			})
			continue
		}
		d := core.DiffSnapshots(st.shadow, snap)
		if d.Empty() {
			// The epoch moved but the export did not (e.g. counts below
			// a tier threshold); nothing to ship, and the shadow still
			// matches, so just leave the state at the old epoch.
			continue
		}
		pending = append(pending, pendingSection{
			sec:  Section{Device: id, Kind: SectionDelta, BaseEpoch: st.epoch, Epoch: epoch, Delta: d},
			snap: snap,
		})
	}
	for id := range c.states {
		if _, ok := live[id]; !ok {
			pending = append(pending, pendingSection{sec: Section{Device: id, Kind: SectionRemove}})
		}
	}
	return pending
}

// export reads one device's epoch and then its full export, in that
// order, for full and delta sections alike: the section is labelled
// with an epoch no newer than its content, so the next round's "did the
// epoch move since the one acked?" can under-claim (one empty diff) but
// never over-claim — labelling an older capture with a newer epoch
// would let a device that goes quiet right there read as unchanged and
// stay stale on the aggregator until its next event. ok is false when
// there is nothing to send: the device cannot be read, or a delta is
// wanted and the epoch still is the acked one (no capture is taken).
func (c *SyncClient) export(id string, st *deviceSyncState, full bool) (snap core.Snapshot, epoch uint64, ok bool) {
	epoch, err := c.cfg.Engine.Epoch(id)
	if err != nil || (!full && epoch == st.epoch) {
		return core.Snapshot{}, 0, false
	}
	snap, err = c.cfg.Engine.Snapshot(id, 0)
	return snap, epoch, err == nil
}

// post sends one encoded frame, retrying transient failures with the
// supervisor's jittered exponential backoff. The frame (and its seq)
// is byte-identical across attempts, so the aggregator can collapse a
// duplicate delivery into a retransmit ack.
func (c *SyncClient) post(ctx context.Context, body []byte) (SyncResult, error) {
	bo := engine.SupervisorConfig{BackoffBase: c.cfg.BackoffBase, BackoffCap: c.cfg.BackoffCap}
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return SyncResult{}, ctx.Err()
			case <-time.After(bo.BackoffDelay(attempt - 1)):
			}
		}
		res, err := c.postOnce(ctx, body)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if isClientError(err) || ctx.Err() != nil {
			return SyncResult{}, err
		}
	}
	return SyncResult{}, fmt.Errorf("fleet: sync failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// errClientRejected marks HTTP 4xx answers: retrying the identical
// frame cannot succeed.
var errClientRejected = errors.New("fleet: aggregator rejected frame")

func isClientError(err error) bool { return errors.Is(err, errClientRejected) }

func (c *SyncClient) postOnce(ctx context.Context, body []byte) (SyncResult, error) {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost,
		c.cfg.Aggregator+"/v1/sync", bytes.NewReader(body))
	if err != nil {
		return SyncResult{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return SyncResult{}, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return SyncResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("fleet: sync answered %s: %s", resp.Status, firstLine(rb))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			err = fmt.Errorf("%w: %v", errClientRejected, err)
		}
		return SyncResult{}, err
	}
	var env struct {
		Data SyncResult `json:"data"`
	}
	if err := json.Unmarshal(rb, &env); err != nil {
		return SyncResult{}, fmt.Errorf("fleet: bad sync response: %w", err)
	}
	return env.Data, nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
