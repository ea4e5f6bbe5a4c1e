// Package api is the one /v1 HTTP layer behind both daemons — the
// collector (charactld, internal/realtime) and the aggregator
// (aggregatord, internal/fleet). It holds the only copy of the
// {data, error} envelope, the typed route error and its single exit
// (Handle), query-parameter parsing, cursor-keyed ETag revalidation,
// the JSON writers, the per-route metrics middleware, and the watch
// delivery loop (watch.go), and it serves the read routes from a
// Source: the small view of "devices, a cursor, the bounded state at
// it, wait for change" that an engine and an aggregator both are.
// Routes only one daemon has (ingest, stats, sync, health) stay in
// that daemon's package and register on the same mux through the same
// helpers, so this package imports neither the engine nor the fleet.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"daccor/internal/core"
	"daccor/internal/obs"
)

// Query parameter defaults and bounds, shared by every route:
//
//	support     minimum pair counter; unsigned 32-bit; default DefaultSupport
//	top         maximum entries returned; default DefaultTop, clamped to MaxTop
//	confidence  rule confidence threshold in [0,1]; default DefaultConfidence
//	wait        long-poll hold time on the watch routes; a Go duration
//	            string > 0, clamped to MaxWatchWait
//	interval    minimum spacing between SSE watch deliveries; a Go
//	            duration string >= 0, clamped to MaxWatchInterval
//
// Out-of-range values (negative, overflowing 32 bits, confidence
// outside [0,1], an unparsable wait or interval) are rejected with a
// bad_request error rather than silently truncated.
const (
	DefaultSupport    = 5
	DefaultTop        = 100
	MaxTop            = 10_000
	DefaultConfidence = 0.5
)

// Machine-readable error codes every daemon's envelope shares; each
// daemon adds the codes for its own failure modes (the collector's
// stopped and device_unavailable, the aggregator's closed and
// bad_frame).
const (
	ErrCodeBadRequest    = "bad_request"    // malformed or out-of-range parameter or body (HTTP 400)
	ErrCodeUnknownDevice = "unknown_device" // no such device id (HTTP 404)
	ErrCodeInternal      = "internal"       // unexpected failure (HTTP 500)
)

// Error is the one typed error every v1 route produces: the
// machine-readable error half of the envelope plus the HTTP status it
// travels under. Route bodies return it instead of writing error
// responses inline, so the envelope shape and status mapping live in
// exactly one place (Handle).
type Error struct {
	Status  int    `json:"-"` // HTTP status; not serialized
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error so an Error can flow through error-shaped
// plumbing — a Source's return values — without losing its status and
// code.
func (e *Error) Error() string { return e.Message }

// Errorf builds a typed route error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// BadRequest wraps a validation failure as the uniform bad_request
// error every route answers for malformed parameters or bodies.
func BadRequest(err error) *Error {
	return Errorf(http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
}

// AsError recovers the typed error a Source returned; a failure the
// source did not type is an internal one.
func AsError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return Errorf(http.StatusInternalServerError, ErrCodeInternal, "%v", err)
}

// Handle adapts a route body to net/http: the body either writes a
// success response and returns nil, or returns the typed error, and
// Handle writes the error envelope for every failed route through one
// code path.
func Handle(h func(w http.ResponseWriter, r *http.Request) *Error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			writeJSON(w, err.Status, envelope{Error: err})
		}
	}
}

// envelope is the uniform v1 response shape: exactly one of Data and
// Error is non-null. The health routes are the one exception: they may
// answer 503 with Data still populated, because a failing probe's body
// must explain what is down.
type envelope struct {
	Data  any    `json:"data"`
	Error *Error `json:"error"`
}

// WriteData writes a success envelope.
func WriteData(w http.ResponseWriter, v any) {
	writeJSON(w, http.StatusOK, envelope{Data: v})
}

// WriteDataStatus writes a data envelope under a non-200 status — the
// health routes answer 503 while still carrying the detail a prober
// needs to say *why*.
func WriteDataStatus(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, envelope{Data: v})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the client went away; nothing to do.
	_ = enc.Encode(v)
}

// Cursor is a view's position, the quantity that keys its ETags and
// its watch event IDs: equal cursors mean a byte-equal response. A
// collector device's cursor is its synopsis epoch (N stays zero); the
// collector's merged view pairs the sum of device epochs with the
// device count; the aggregator pairs its mirror version with the
// number of live collectors feeding the view, so a collector crossing
// FailAfter — which changes the merge without a version bump — still
// moves the cursor.
type Cursor struct {
	Epoch uint64
	N     int
}

// State is one read of a view: the bounded state (core.State) and the
// cursor the source read before deriving it.
type State struct {
	Cursor Cursor
	core.State
}

// Source is what the read routes serve from. Every method taking a
// device answers for that device's view, or for the merged view across
// all devices when device is "". Errors that should reach the client
// as anything but 500 internal are returned as *Error (see AsError).
//
// Two rules make the cursor safe to cache on. The cursor labelling a
// body is read before the state behind the body — by the handler ahead
// of a conditional GET, by State itself otherwise — so it may
// under-claim the body's freshness (costing one redundant delivery or
// 200) but never over-claims it (which would hide newer state behind a
// 304). And a source that is about to become terminal publishes its
// final state — one last cursor advance — before Wait starts returning
// the terminal error, so a watcher always sees the last state and then
// the reason, never the reason alone.
type Source interface {
	// Devices lists the devices behind the merged view, sorted.
	Devices() []string
	// DeviceRows is the body of GET /v1/devices: one object per device,
	// its "id" plus whatever per-device counters the source keeps (a
	// collector's ingest health; an aggregator mirrors synopses, not
	// queues, and has none).
	DeviceRows() ([]map[string]any, error)
	// Cursor returns the view's current position without computing
	// anything: it is the whole cost of a 304.
	Cursor(device string) (Cursor, error)
	// State reads the view once: the number of pairs at support, the
	// top highest-count of them, and the top highest-ranked rules at
	// support and conf — the parts named by want, with top = 0 keeping
	// no entries. Every part comes from one capture of the view, so one
	// body never describes two epochs.
	State(device string, support uint32, conf float64, top int, want core.Want) (State, error)
	// Wait blocks until the view's cursor differs from since and
	// reports when it moved (zero if unknown). It returns ctx's error
	// when ctx ends first, and a terminal error — immediately, and on
	// every later call — once the view can never advance again.
	Wait(ctx context.Context, device string, since Cursor) (time.Time, error)
	// EndReason names a terminal error from Wait (or a read that failed
	// mid-stream) for the watcher: the reason of the final `end` event.
	EndReason(err error) string
}

// server carries what the shared routes close over.
type server struct {
	src Source
	// decorate, when set, stamps source-wide context into every
	// object-bodied read and watch body before it is written — the
	// aggregator's data.fleet staleness block.
	decorate func(body map[string]any)
	wm       *watchMetrics
}

// NewMux returns a mux serving the shared read surface from src:
//
//	GET /v1/devices                        device rows (DeviceRows)
//	GET /v1/devices/{id}/snapshot          one device's frequent correlations   ?support=&top=
//	GET /v1/devices/{id}/rules             one device's directional rules       ?support=&confidence=&top=
//	GET /v1/devices/{id}/watch             push stream of one device's rule state
//	GET /v1/snapshot                       merged correlations                  ?support=&top=
//	GET /v1/rules                          merged rules                         ?support=&confidence=&top=
//	GET /v1/watch                          push stream of the merged rule state
//	GET /v1/metrics                        Prometheus text exposition of reg
//
// The snapshot and rules routes answer conditional GETs from the
// cursor alone; the watch routes are described in watch.go. decorate
// may be nil. The caller registers its own routes on the returned mux
// (through Handle and the writers, so they share the envelope) and
// serves it wrapped in WithMetrics.
func NewMux(src Source, reg *obs.Registry, decorate func(body map[string]any)) *http.ServeMux {
	s := &server{src: src, decorate: decorate, wm: newWatchMetrics(reg)}
	mux := http.NewServeMux()
	// view mounts a handler that serves one device's view under
	// /v1/devices/{id}/... and the merged view under /v1/...: PathValue
	// is "" on the patterns without an {id}.
	view := func(pattern string, h func(device string, w http.ResponseWriter, r *http.Request) *Error) {
		mux.HandleFunc(pattern, Handle(func(w http.ResponseWriter, r *http.Request) *Error {
			return h(r.PathValue("id"), w, r)
		}))
	}
	view("GET /v1/devices/{id}/snapshot", s.serveSnapshot)
	view("GET /v1/devices/{id}/rules", s.serveRules)
	view("GET /v1/devices/{id}/watch", s.serveWatch)
	view("GET /v1/snapshot", s.serveSnapshot)
	view("GET /v1/rules", s.serveRules)
	view("GET /v1/watch", s.serveWatch)

	mux.HandleFunc("GET /v1/devices", Handle(func(w http.ResponseWriter, r *http.Request) *Error {
		rows, err := src.DeviceRows()
		if err != nil {
			return AsError(err)
		}
		WriteData(w, rows)
		return nil
	}))

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.TextContentType)
		// An encode error means the scraper went away mid-response.
		_ = reg.WritePrometheus(w)
	})
	return mux
}

func (s *server) serveSnapshot(device string, w http.ResponseWriter, r *http.Request) *Error {
	support, top, err := snapshotParams(r)
	if err != nil {
		return BadRequest(err)
	}
	cur, err := s.src.Cursor(device)
	if err != nil {
		return AsError(err)
	}
	if revalidated(w, r, fmt.Sprintf("%s-s%d-t%d", formatCursor(device, cur), support, top)) {
		return nil
	}
	st, err := s.state(device, support, 0, top, core.WantPairs)
	if err != nil {
		return AsError(err)
	}
	WriteData(w, s.body(device, map[string]any{
		"totalPairs": st.TotalPairs,
		"pairs":      st.Pairs,
	}))
	return nil
}

func (s *server) serveRules(device string, w http.ResponseWriter, r *http.Request) *Error {
	support, top, conf, err := ruleParams(r)
	if err != nil {
		return BadRequest(err)
	}
	cur, err := s.src.Cursor(device)
	if err != nil {
		return AsError(err)
	}
	if revalidated(w, r, fmt.Sprintf("%s-s%d-t%d-c%g", formatCursor(device, cur), support, top, conf)) {
		return nil
	}
	st, err := s.state(device, support, conf, top, core.WantRules)
	if err != nil {
		return AsError(err)
	}
	WriteData(w, s.body(device, map[string]any{"rules": st.Rules}))
	return nil
}

// state reads the view's state for a body. ?top=0 is served as an
// empty rule list, not an absent one.
func (s *server) state(device string, support uint32, conf float64, top int, want core.Want) (State, error) {
	st, err := s.src.State(device, support, conf, top, want)
	if err == nil && top == 0 {
		st.Rules = []core.Rule{}
	}
	return st, err
}

// body finishes an object body: it names the view ("device", or the
// merged view's "devices") and applies the source's decorator.
func (s *server) body(device string, body map[string]any) map[string]any {
	if device != "" {
		body["device"] = device
	} else {
		body["devices"] = s.src.Devices()
	}
	if s.decorate != nil {
		s.decorate(body)
	}
	return body
}

// revalidated implements cursor-gated conditional GET on the query
// routes. The tag encodes the view's cursor plus every parameter that
// shapes the body (the URL already names the view, and validators are
// per URL); the synopsis is deterministic, so an equal tag
// guarantees a byte-equal response and the handler can answer 304
// without recomputing — or even re-asking — anything. The cursor is
// read before the body is computed, so a tag can only under-claim
// freshness: a matching If-None-Match never hides newer state, it only
// spares work when nothing changed.
func revalidated(w http.ResponseWriter, r *http.Request, tag string) bool {
	etag := `"` + tag + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

func snapshotParams(r *http.Request) (support uint32, top int, err error) {
	support, err = supportParam(r)
	if err != nil {
		return 0, 0, err
	}
	top, err = topParam(r)
	if err != nil {
		return 0, 0, err
	}
	return support, top, nil
}

func ruleParams(r *http.Request) (support uint32, top int, conf float64, err error) {
	support, top, err = snapshotParams(r)
	if err != nil {
		return 0, 0, 0, err
	}
	conf = DefaultConfidence
	if v := r.URL.Query().Get("confidence"); v != "" {
		conf, err = strconv.ParseFloat(v, 64)
		if err != nil || conf < 0 || conf > 1 {
			return 0, 0, 0, errors.New("confidence must be a number in [0,1]")
		}
	}
	return support, top, conf, nil
}

// supportParam parses ?support= (default DefaultSupport). Values that
// do not fit an unsigned 32-bit counter are rejected, not truncated.
func supportParam(r *http.Request) (uint32, error) {
	v := r.URL.Query().Get("support")
	if v == "" {
		return DefaultSupport, nil
	}
	n, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return 0, errors.New("support must be a non-negative 32-bit integer")
	}
	return uint32(n), nil
}

// topParam parses ?top= (default DefaultTop). Negative and
// non-numeric values are rejected; anything above MaxTop is clamped so
// a single request cannot ask for an unbounded result set. Parsing at
// 31 bits keeps the conversion to int safe on 32-bit platforms.
func topParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("top")
	if v == "" {
		return DefaultTop, nil
	}
	n, err := strconv.ParseUint(v, 10, 31)
	if err != nil {
		return 0, fmt.Errorf("top must be a non-negative integer <= %d", MaxTop)
	}
	if n > MaxTop {
		n = MaxTop
	}
	return int(n), nil
}

// HTTP server metric families recorded by the middleware.
const (
	MetricHTTPRequests = "daccor_http_requests_total"
	MetricHTTPLatency  = "daccor_http_request_seconds"
)

// WithMetrics wraps the API mux with per-route observability: a
// request counter labeled {route, code} and a latency histogram
// labeled {route}, recorded into reg so the metrics endpoint also
// observes the API serving it. The route label is the registered mux
// pattern (a bounded set), never the raw URL path — device IDs and
// query strings must not mint unbounded label cardinality.
func WithMetrics(reg *obs.Registry, mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start).Seconds()
		reg.Counter(MetricHTTPRequests, "HTTP requests served, by route pattern and status code.",
			obs.L("route", route), obs.L("code", strconv.Itoa(sw.code))).Inc()
		reg.Histogram(MetricHTTPLatency, "HTTP request latency by route pattern, in seconds.",
			obs.LatencyBuckets(), obs.L("route", route)).Observe(elapsed)
	})
}

// statusWriter captures the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// the watch routes can flush SSE events through the metrics middleware.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
