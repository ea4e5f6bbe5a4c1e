// Package client is the typed Go client for the daccor v1 HTTP API —
// a collector's (charactld) or an aggregator's (aggregatord): both
// serve the same read surface from the same handlers, so everything
// here but the collector-only calls (Stats, SubmitEvents, Unregister,
// Health) works against either.
//
// It wraps the uniform {data, error} envelope, surfaces the API's
// machine-readable error codes as *APIError values, revalidates query
// responses with ETags (a 304 is answered from the client's cache, and
// counted, so callers can verify they are not re-fetching unchanged
// state), and consumes the push routes: Watch opens a Server-Sent
// Events stream with automatic resume via Last-Event-ID, WatchPoll
// drives the ?wait= long-poll fallback.
//
// The zero value of Query omits every parameter, selecting the
// server-side defaults (support 5, top 100, confidence 0.5). A
// deliberate tradeoff: Support=0 cannot be expressed, but a support
// floor of zero just returns the whole synopsis, which ?top= bounds
// anyway.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/monitor"
)

// APIError is the error half of the v1 envelope plus the HTTP status
// it arrived under. Code is one of the API's machine-readable codes
// (bad_request, unknown_device, internal; a collector's stopped and
// device_unavailable; an aggregator's closed).
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("daccor api: %s (%d): %s", e.Code, e.Status, e.Message)
}

// envelope mirrors the server's uniform response shape.
type envelope struct {
	Data  json.RawMessage `json:"data"`
	Error *APIError       `json:"error"`
}

// Query carries the parameters shared by the snapshot, rules, and
// watch routes. Zero-valued fields are omitted, selecting the server
// defaults.
type Query struct {
	Support    uint32
	Top        int
	Confidence float64
	// Interval paces SSE watch deliveries: the server spaces
	// deliveries at least this far apart, coalescing intermediate
	// epoch advances. Only the watch routes honor it; it trades
	// delivery latency for server work, which matters when watching a
	// large fleet.
	Interval time.Duration
}

func (q Query) values() url.Values {
	v := url.Values{}
	if q.Support != 0 {
		v.Set("support", strconv.FormatUint(uint64(q.Support), 10))
	}
	if q.Top != 0 {
		v.Set("top", strconv.Itoa(q.Top))
	}
	if q.Confidence != 0 {
		v.Set("confidence", strconv.FormatFloat(q.Confidence, 'g', -1, 64))
	}
	if q.Interval != 0 {
		v.Set("interval", q.Interval.String())
	}
	return v
}

// Client talks to one daccor service. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	mu          sync.Mutex
	cache       map[string]cachedResp // canonical URL -> last 200 response
	revalidated uint64
}

// cachedResp is one remembered query response, revalidated with
// If-None-Match on the next request for the same URL.
type cachedResp struct {
	etag string
	data json.RawMessage
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (e.g. to set
// timeouts or a test transport).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the service at base, e.g.
// "http://127.0.0.1:9000". The path prefix "/v1" is appended by the
// client; base must not include it.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:  base,
		hc:    http.DefaultClient,
		cache: make(map[string]cachedResp),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Revalidations reports how many requests were answered 304 and served
// from the client's ETag cache.
func (c *Client) Revalidations() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.revalidated
}

// urlFor builds the canonical request URL (sorted query encoding, so
// equivalent requests share one cache slot).
func (c *Client) urlFor(path string, q url.Values) string {
	u := c.base + "/v1" + path
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

// get performs one enveloped GET with ETag revalidation and decodes
// the data half into out.
func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.urlFor(path, q)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	c.mu.Lock()
	prior, hasPrior := c.cache[u]
	c.mu.Unlock()
	if hasPrior {
		req.Header.Set("If-None-Match", prior.etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		c.mu.Lock()
		c.revalidated++
		c.mu.Unlock()
		return json.Unmarshal(prior.data, out)
	}
	data, err := decodeEnvelope(resp)
	if err != nil {
		return err
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.mu.Lock()
		c.cache[u] = cachedResp{etag: etag, data: data}
		c.mu.Unlock()
	}
	return json.Unmarshal(data, out)
}

// decodeEnvelope reads one response body and splits the envelope:
// the raw data on success, the typed *APIError otherwise.
func decodeEnvelope(resp *http.Response) (json.RawMessage, error) {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("daccor api: status %d with undecodable body: %v", resp.StatusCode, err)
	}
	if env.Error != nil {
		env.Error.Status = resp.StatusCode
		return nil, env.Error
	}
	if resp.StatusCode != http.StatusOK {
		// Data-carrying non-200 (the health routes) is the caller's to
		// interpret; anything else without an error envelope is broken.
		if env.Data == nil {
			return nil, &APIError{Status: resp.StatusCode, Code: "internal",
				Message: fmt.Sprintf("status %d with empty envelope", resp.StatusCode)}
		}
	}
	return env.Data, nil
}

// DeviceStats is one device's row in Stats.
type DeviceStats struct {
	ID       string        `json:"id"`
	Monitor  monitor.Stats `json:"monitor"`
	Analyzer core.Stats    `json:"analyzer"`
	WindowNs int64         `json:"windowNs"`
	Dropped  uint64        `json:"dropped"`
	Lag      int           `json:"lag"`
}

// Stats is the GET /v1/stats response.
type Stats struct {
	Devices []DeviceStats `json:"devices"`
	Totals  struct {
		Monitor  monitor.Stats `json:"monitor"`
		Analyzer core.Stats    `json:"analyzer"`
		Dropped  uint64        `json:"dropped"`
	} `json:"totals"`
}

// Stats fetches per-device and total pipeline counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.get(ctx, "/stats", nil, &st)
	return st, err
}

// DeviceInfo is one row of the GET /v1/devices listing.
type DeviceInfo struct {
	ID      string `json:"id"`
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
	Lag     int    `json:"lag"`
}

// Devices lists the registered devices.
func (c *Client) Devices(ctx context.Context) ([]DeviceInfo, error) {
	var ds []DeviceInfo
	err := c.get(ctx, "/devices", nil, &ds)
	return ds, err
}

// Snapshot is a snapshot-route response: Device is set for the
// per-device route, Devices for the fleet route.
type Snapshot struct {
	Device     string           `json:"device"`
	Devices    []string         `json:"devices"`
	TotalPairs int              `json:"totalPairs"`
	Pairs      []core.PairCount `json:"pairs"`
}

// DeviceSnapshot fetches one device's frequent correlated pairs.
func (c *Client) DeviceSnapshot(ctx context.Context, device string, q Query) (Snapshot, error) {
	var s Snapshot
	err := c.get(ctx, "/devices/"+url.PathEscape(device)+"/snapshot", q.values(), &s)
	return s, err
}

// FleetSnapshot fetches the fleet-wide merged correlated pairs.
func (c *Client) FleetSnapshot(ctx context.Context, q Query) (Snapshot, error) {
	var s Snapshot
	err := c.get(ctx, "/snapshot", q.values(), &s)
	return s, err
}

// Rules is a rules-route response: Device is set for the per-device
// route, Devices for the fleet route.
type Rules struct {
	Device  string      `json:"device"`
	Devices []string    `json:"devices"`
	Rules   []core.Rule `json:"rules"`
}

// DeviceRules fetches one device's directional rules.
func (c *Client) DeviceRules(ctx context.Context, device string, q Query) (Rules, error) {
	var rs Rules
	err := c.get(ctx, "/devices/"+url.PathEscape(device)+"/rules", q.values(), &rs)
	return rs, err
}

// FleetRules fetches the fleet-wide merged rules.
func (c *Client) FleetRules(ctx context.Context, q Query) (Rules, error) {
	var rs Rules
	err := c.get(ctx, "/rules", q.values(), &rs)
	return rs, err
}

// SubmitEvents posts one batch to a device's ingest route and returns
// how many events the server accepted (all of them, or none: a bad
// event rejects the whole batch).
func (c *Client) SubmitEvents(ctx context.Context, device string, evs []blktrace.Event) (int, error) {
	body := appendEvents(make([]byte, 0, 64+80*len(evs)), evs)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.urlFor("/devices/"+url.PathEscape(device)+"/events", nil), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := decodeEnvelope(resp)
	if err != nil {
		return 0, err
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, err
	}
	return out.Accepted, nil
}

// appendEvents appends the ingest body for evs, byte for byte what
// encoding/json writes for {"events": [{"time", "pid", "op", "block",
// "len"}, ...]}: the server's scanner decodes exactly that shape.
func appendEvents(dst []byte, evs []blktrace.Event) []byte {
	dst = append(dst, `{"events":[`...)
	for i := range evs {
		ev := &evs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"time":`...)
		dst = strconv.AppendInt(dst, ev.Time, 10)
		dst = append(dst, `,"pid":`...)
		dst = strconv.AppendUint(dst, uint64(ev.PID), 10)
		if ev.Op == blktrace.OpWrite {
			dst = append(dst, `,"op":"write","block":`...)
		} else {
			dst = append(dst, `,"op":"read","block":`...)
		}
		dst = strconv.AppendUint(dst, ev.Extent.Block, 10)
		dst = append(dst, `,"len":`...)
		dst = strconv.AppendUint(dst, uint64(ev.Extent.Len), 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// Unregister removes a device: its queue drains, its state flushes and
// checkpoints, and its watchers receive a terminal event.
func (c *Client) Unregister(ctx context.Context, device string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.urlFor("/devices/"+url.PathEscape(device), nil), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = decodeEnvelope(resp)
	return err
}

// Health is the GET /v1/healthz response: Status is "ok", "degraded",
// or "failed"; Devices carries the per-device supervision detail.
type Health struct {
	Status  string           `json:"status"`
	Devices []map[string]any `json:"devices"`
}

// Health fetches the supervision health view. The route answers 503
// when every device has failed; the body is still returned.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.get(ctx, "/healthz", nil, &h)
	return h, err
}

// Ready reports the readiness probe: false once the service is
// stopping or wholly failed.
func (c *Client) Ready(ctx context.Context) (bool, error) {
	var body struct {
		Ready bool `json:"ready"`
	}
	if err := c.get(ctx, "/readyz", nil, &body); err != nil {
		return false, err
	}
	return body.Ready, nil
}

// watchPath returns the watch route for a device ("" = fleet).
func watchPath(device string) string {
	if device == "" {
		return "/watch"
	}
	return "/devices/" + url.PathEscape(device) + "/watch"
}

// WatchState is one delivery from a watch route: the rule/snapshot
// state at cursor Epoch. Device is set on per-device watches, Devices
// on fleet watches.
type WatchState struct {
	Epoch      string           `json:"epoch"`
	Device     string           `json:"device"`
	Devices    []string         `json:"devices"`
	TotalPairs int              `json:"totalPairs"`
	Pairs      []core.PairCount `json:"pairs"`
	Rules      []core.Rule      `json:"rules"`
}

// WatchPoll drives the long-poll form of the watch route (for callers
// that cannot hold an SSE stream). etag is the value returned by the
// previous WatchPoll ("" on the first call: the state returns
// immediately). With a current etag the server blocks up to wait for
// an epoch advance; changed=false means the wait elapsed with no
// change and st is the zero value.
func (c *Client) WatchPoll(ctx context.Context, device string, q Query, etag string, wait time.Duration) (st WatchState, newETag string, changed bool, err error) {
	v := q.values()
	v.Set("wait", wait.String())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urlFor(watchPath(device), v), nil)
	if err != nil {
		return WatchState{}, etag, false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return WatchState{}, etag, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return WatchState{}, resp.Header.Get("ETag"), false, nil
	}
	data, err := decodeEnvelope(resp)
	if err != nil {
		return WatchState{}, etag, false, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return WatchState{}, etag, false, err
	}
	return st, resp.Header.Get("ETag"), true, nil
}
