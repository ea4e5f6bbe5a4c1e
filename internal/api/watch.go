package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"daccor/internal/core"
	"daccor/internal/obs"
)

// The watch routes are the push half of the v1 API. The query routes
// let a consumer *validate* cheaply (cursor-keyed ETags, 304s); watch
// lets it *subscribe*: one open request, and every cursor advance — a
// processed batch, a restart, a stop flush on a collector; an applied
// sync section or a collector lost on an aggregator — is delivered as
// it happens, coalescing naturally under rapid change because the
// handler always reads the freshest state after a wakeup. Two wire
// forms share the same cursor:
//
//   - SSE (default): each event carries `id:` = the cursor,
//     `event: rules`, and a JSON body {"epoch", "device" or "devices",
//     "totalPairs", "pairs", "rules"} shaped by the usual
//     support/confidence/top parameters. A slow watcher skips
//     intermediate cursors and always receives the newest state.
//     Reconnecting with Last-Event-ID set to the last seen cursor
//     resumes: a stale cursor gets the current state immediately, the
//     current cursor blocks until the next advance, so nothing is
//     delivered twice. `event: end`, whose body carries the reason,
//     terminates the stream when the watched state can never advance
//     again.
//   - Long poll (?wait=), for clients without SSE: the state is
//     returned immediately unless If-None-Match matches the current
//     ETag, in which case the request blocks until the cursor advances
//     (200 with the new state) or the wait elapses (304).
//
// Both forms are notification-driven; neither polls internally.
//
// The cursor is the same quantity that keys the query routes' ETags
// (see Cursor): "17" for a collector device, "103.2" for views that
// carry a count.

// MaxWatchWait bounds the ?wait= long-poll hold; watchKeepalive paces
// SSE comment lines so idle streams keep intermediaries from timing
// the connection out. MaxWatchInterval bounds ?interval=, the
// SSE delivery pacing knob.
const (
	MaxWatchWait     = 60 * time.Second
	watchKeepalive   = 25 * time.Second
	MaxWatchInterval = 10 * time.Second
)

// WatchWriteTimeout bounds every SSE write. A consumer that stops
// reading fills its TCP window and would otherwise park the handler
// goroutine in Write forever — holding the watcher slot, its buffers,
// and a connection nobody is draining. Past the deadline the stream is
// dropped: a reader that slow has effectively disconnected, and SSE
// reconnection (Last-Event-ID) makes the drop cheap to recover from.
// A variable so the slow-consumer tests do not take ten seconds.
var WatchWriteTimeout = 10 * time.Second

// Watch metric families recorded in the daemon's registry.
const (
	MetricWatchWatchers  = "daccor_watch_watchers"
	MetricWatchEvents    = "daccor_watch_events_total"
	MetricWatchFanout    = "daccor_watch_fanout_seconds"
	MetricWatchCoalesced = "daccor_watch_coalesced_epochs_total"
	MetricWatchTimeouts  = "daccor_watch_longpoll_timeouts_total"
	MetricWatchSlowDrops = "daccor_watch_slow_drops_total"
	MetricWatchState     = "daccor_watch_state_seconds"
)

// watchMetrics holds the watch instruments, resolved once per mux so
// the event loops never touch the registry's lookup path.
type watchMetrics struct {
	watchers   *obs.Gauge
	sseEvents  *obs.Counter
	pollEvents *obs.Counter
	fanout     *obs.Histogram
	coalesced  *obs.Counter
	timeouts   *obs.Counter
	slowDrops  *obs.Counter
	// stateSeconds times one state build: what a woken watcher waits
	// between the wakeup and having a body to write.
	stateSeconds *obs.Histogram
}

func newWatchMetrics(reg *obs.Registry) *watchMetrics {
	return &watchMetrics{
		watchers: reg.Gauge(MetricWatchWatchers,
			"Currently connected SSE watch streams."),
		sseEvents: reg.Counter(MetricWatchEvents,
			"Watch state deliveries, by transport mode.", obs.L("mode", "sse")),
		pollEvents: reg.Counter(MetricWatchEvents,
			"Watch state deliveries, by transport mode.", obs.L("mode", "poll")),
		fanout: reg.Histogram(MetricWatchFanout,
			"Latency from epoch advance to watcher wakeup, in seconds.", obs.LatencyBuckets()),
		coalesced: reg.Counter(MetricWatchCoalesced,
			"Epoch advances skipped because a watcher coalesced them into one delivery."),
		timeouts: reg.Counter(MetricWatchTimeouts,
			"Long-poll watch requests that timed out with 304 (no advance)."),
		slowDrops: reg.Counter(MetricWatchSlowDrops,
			"SSE watch streams dropped because the client stopped reading."),
		stateSeconds: reg.Histogram(MetricWatchState,
			"Time to build one watch state body (one read of the view), in seconds.", obs.LatencyBuckets()),
	}
}

// observeFanout records how long after the cursor moved this watcher
// actually woke — the push path's delivery latency.
func (wm *watchMetrics) observeFanout(advanced time.Time) {
	if advanced.IsZero() {
		return
	}
	if d := time.Since(advanced); d >= 0 {
		wm.fanout.Observe(d.Seconds())
	}
}

// formatCursor renders a cursor as the wire token used for SSE event
// IDs and inside ETags: the bare epoch for a device view that carries
// no count, "epoch.n" otherwise.
func formatCursor(device string, c Cursor) string {
	if device != "" && c.N == 0 {
		return strconv.FormatUint(c.Epoch, 10)
	}
	return fmt.Sprintf("%d.%d", c.Epoch, c.N)
}

// parseCursor decodes a wire token (e.g. a Last-Event-ID header).
// Unparsable tokens report false and are treated as no cursor at all —
// a client with a garbled cursor just gets the current state delivered.
func parseCursor(s string) (Cursor, bool) {
	epoch, count, dotted := strings.Cut(s, ".")
	var c Cursor
	var err error
	if c.Epoch, err = strconv.ParseUint(epoch, 10, 64); err != nil {
		return Cursor{}, false
	}
	if dotted {
		if c.N, err = strconv.Atoi(count); err != nil || c.N < 0 {
			return Cursor{}, false
		}
	}
	return c, true
}

// skipped estimates the epoch advances coalesced between two delivered
// cursors: a watcher that wakes to epoch 9 after delivering epoch 5
// skipped three intermediate states.
func skipped(prev, next Cursor) uint64 {
	if next.Epoch > prev.Epoch+1 {
		return next.Epoch - prev.Epoch - 1
	}
	return 0
}

// waitParam parses ?wait= (absent means SSE mode): a positive Go
// duration string, clamped to MaxWatchWait.
func waitParam(r *http.Request) (time.Duration, bool, error) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, false, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, false, fmt.Errorf("wait must be a positive Go duration (e.g. %q), got %q", "30s", v)
	}
	if d > MaxWatchWait {
		d = MaxWatchWait
	}
	return d, true, nil
}

// intervalParam parses ?interval=, the SSE delivery pacing knob: the
// minimum spacing between deliveries on one stream, clamped to
// MaxWatchInterval. Cursor advances inside the spacing coalesce into
// the next delivery — the stream's contract (freshest state, no
// missed terminal events) is unchanged, only its cadence. Without it
// a merged-view watcher makes the server recompute the merged state on
// every advance of any device, which at fleet scale is a tight
// recompute loop; with it the server does that work at most once per
// interval per stream.
func intervalParam(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("interval")
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("interval must be a non-negative Go duration (e.g. %q), got %q", "250ms", v)
	}
	if d > MaxWatchInterval {
		d = MaxWatchInterval
	}
	return d, nil
}

// watch is one watch request: a view and the parameters shaping its
// state.
type watch struct {
	*server
	device  string
	support uint32
	top     int
	conf    float64
}

// serveWatch is the shared body of GET /v1/watch and
// GET /v1/devices/{id}/watch.
func (s *server) serveWatch(device string, w http.ResponseWriter, r *http.Request) *Error {
	support, top, conf, err := ruleParams(r)
	if err != nil {
		return BadRequest(err)
	}
	wait, hasWait, err := waitParam(r)
	if err != nil {
		return BadRequest(err)
	}
	interval, err := intervalParam(r)
	if err != nil {
		return BadRequest(err)
	}
	t := watch{server: s, device: device, support: support, top: top, conf: conf}
	if hasWait {
		return t.longPoll(w, r, wait)
	}
	return t.stream(w, r, interval)
}

// state reads the view's current cursor and body, timed as
// daccor_watch_state_seconds. Everything in the body comes from one
// State read, so it describes one epoch; the cursor is read before it,
// so it can only under-claim freshness — a watcher acting on the body
// never misses a newer epoch, it is just woken once more for it.
func (t watch) state() (Cursor, map[string]any, error) {
	start := time.Now()
	st, err := t.server.state(t.device, t.support, t.conf, t.top, core.WantPairs|core.WantRules)
	if err != nil {
		return Cursor{}, nil, err
	}
	body := t.body(t.device, map[string]any{
		"epoch":      formatCursor(t.device, st.Cursor),
		"totalPairs": st.TotalPairs,
		"pairs":      st.Pairs,
		"rules":      st.Rules,
	})
	t.wm.stateSeconds.Observe(time.Since(start).Seconds())
	return st.Cursor, body, nil
}

// longPoll is the no-SSE fallback: semantically a conditional GET on
// the watch state whose 304 is deferred until the wait elapses. A
// request without If-None-Match (or with a stale tag) answers
// immediately; a request holding the current tag blocks on the
// source's notification — never an internal poll loop — until
// something changes.
func (t watch) longPoll(w http.ResponseWriter, r *http.Request, wait time.Duration) *Error {
	tag := func(c Cursor) string {
		return fmt.Sprintf(`"w-%s-s%d-t%d-c%g"`, formatCursor(t.device, c), t.support, t.top, t.conf)
	}
	cur, body, err := t.state()
	if err != nil {
		return AsError(err)
	}
	if r.Header.Get("If-None-Match") == tag(cur) {
		held := cur
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		advanced, werr := t.src.Wait(ctx, t.device, held)
		cancel()
		switch {
		case werr == nil:
			t.wm.observeFanout(advanced)
			cur, body, err = t.state()
			if err != nil {
				return AsError(err)
			}
			t.wm.coalesced.Add(skipped(held, cur))
		case errors.Is(werr, context.DeadlineExceeded):
			t.wm.timeouts.Inc()
			w.Header().Set("ETag", tag(cur))
			w.WriteHeader(http.StatusNotModified)
			return nil
		case r.Context().Err() != nil:
			return nil // client went away mid-wait
		default:
			return AsError(werr)
		}
	}
	w.Header().Set("ETag", tag(cur))
	WriteData(w, body)
	t.wm.pollEvents.Inc()
	return nil
}

// stream serves one SSE watch until the client disconnects or the
// watched state becomes terminal.
func (t watch) stream(w http.ResponseWriter, r *http.Request, interval time.Duration) *Error {
	// Resolve the initial state before committing to the stream, so an
	// unknown device or stopped source still gets a proper enveloped
	// error instead of a broken event stream.
	cur, body, err := t.state()
	if err != nil {
		return AsError(err)
	}
	rc := http.NewResponseController(w)
	// push writes one SSE chunk under the slow-consumer deadline: each
	// write gets a fresh WatchWriteTimeout, and a write (or flush) that
	// cannot complete within it ends the stream instead of parking this
	// goroutine on a full TCP window.
	push := func(write func() error) error {
		_ = rc.SetWriteDeadline(time.Now().Add(WatchWriteTimeout))
		err := write()
		if err == nil {
			err = rc.Flush()
		}
		if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			t.wm.slowDrops.Inc()
		}
		return err
	}
	// end emits the terminal SSE event, best effort.
	end := func(err error) {
		_ = push(func() error {
			return writeSSEEvent(w, "", "end", map[string]any{"reason": t.src.EndReason(err)})
		})
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: when a resuming client's first delivery is
	// suppressed, nothing else would push them out until the first
	// keepalive, leaving the client blocked on connection setup.
	if push(func() error { return nil }) != nil {
		return nil
	}
	t.wm.watchers.Add(1)
	defer t.wm.watchers.Add(-1)

	prev := cur
	deliver := true
	if last, ok := parseCursor(r.Header.Get("Last-Event-ID")); ok && last == cur {
		// The reconnecting client already holds the current state; the
		// first delivery is the next advance. A stale or garbled cursor
		// falls through and gets the current state immediately.
		deliver = false
	}
	for {
		if deliver {
			if push(func() error { return writeSSEEvent(w, formatCursor(t.device, cur), "rules", body) }) != nil {
				return nil // client went away or stopped reading
			}
			t.wm.sseEvents.Inc()
			t.wm.coalesced.Add(skipped(prev, cur))
			prev = cur
			if interval > 0 {
				// Pace the stream: advances landing in this window
				// coalesce into the next delivery. Terminal wakes are
				// not lost — the wait below returns them as soon as
				// the window closes.
				select {
				case <-r.Context().Done():
					return nil
				case <-time.After(interval):
				}
			}
		}
		kctx, cancel := context.WithTimeout(r.Context(), watchKeepalive)
		advanced, werr := t.src.Wait(kctx, t.device, prev)
		cancel()
		switch {
		case werr == nil:
			t.wm.observeFanout(advanced)
			cur, body, err = t.state()
			if err != nil {
				end(err)
				return nil
			}
			deliver = cur != prev
		case errors.Is(werr, context.DeadlineExceeded):
			if push(func() error {
				_, err := io.WriteString(w, ": keepalive\n\n")
				return err
			}) != nil {
				return nil
			}
			deliver = false
		case r.Context().Err() != nil:
			return nil // client disconnected
		default:
			// Terminal: the watched state can never advance again. The
			// watcher has already received the final state (a source
			// publishes it before the terminal wake), so all that is
			// left is to say why.
			end(werr)
			return nil
		}
	}
}

// writeSSEEvent writes one Server-Sent Event frame. The data is JSON,
// which never contains raw newlines, so a single data: line suffices.
func writeSSEEvent(w io.Writer, id, event string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if id != "" {
		fmt.Fprintf(&buf, "id: %s\n", id)
	}
	fmt.Fprintf(&buf, "event: %s\ndata: %s\n\n", event, b)
	_, err = w.Write(buf.Bytes())
	return err
}
