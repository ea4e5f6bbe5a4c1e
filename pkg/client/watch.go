package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// WatchEndError is the terminal condition of a watch stream: the
// server said the watched state can never advance again. Reason
// mirrors the API error codes: "stopped" or "device_unavailable" from
// a collector, "closed" or "unknown_device" (the device lost its last
// live mirror) from an aggregator.
type WatchEndError struct {
	Reason string
}

func (e *WatchEndError) Error() string {
	return fmt.Sprintf("daccor api: watch ended: %s", e.Reason)
}

// reconnect backoff for dropped watch streams.
const (
	watchBackoffBase = 100 * time.Millisecond
	watchBackoffCap  = 2 * time.Second
)

// Watcher is a live subscription to a watch route. Deliveries arrive
// on Events; the channel is buffered with capacity one and a slow
// consumer is never a problem — a newer state overwrites an
// undelivered older one (the same coalescing the server applies), so
// the reader always sees the freshest state it hasn't consumed.
//
// Events closes when the watch terminates; Err then reports why: nil
// after Close or context cancellation, a *WatchEndError when the
// server ended the stream, or the error that stopped reconnection.
// Dropped connections are re-dialed automatically with the last seen
// event ID, so no state is delivered twice and none is missed.
type Watcher struct {
	events chan WatchState

	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	err    error
	lastID string
}

// Events is the delivery channel; it closes when the watch ends.
func (w *Watcher) Events() <-chan WatchState { return w.events }

// Err reports why the watch ended; call after Events closes.
func (w *Watcher) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil && (errors.Is(w.err, context.Canceled) || errors.Is(w.err, context.DeadlineExceeded)) {
		return nil
	}
	return w.err
}

// LastEventID is the cursor of the newest state received — the resume
// point a reconnect presents as Last-Event-ID.
func (w *Watcher) LastEventID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastID
}

// Close tears the stream down and waits for the run loop to exit.
func (w *Watcher) Close() {
	w.cancel()
	<-w.done
}

// Watch subscribes to a device's watch route ("" = the fleet route).
// The first connection is made synchronously, so an unknown device or
// stopped service fails here rather than asynchronously; after that
// the stream lives until ctx ends, Close is called, or the server
// terminates it.
func (c *Client) Watch(ctx context.Context, device string, q Query) (*Watcher, error) {
	wctx, cancel := context.WithCancel(ctx)
	resp, err := c.dialWatch(wctx, device, q, "")
	if err != nil {
		cancel()
		return nil, err
	}
	w := &Watcher{
		events: make(chan WatchState, 1),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go w.run(wctx, c, device, q, resp)
	return w, nil
}

// dialWatch opens one SSE connection, resuming from lastID when set.
func (c *Client) dialWatch(ctx context.Context, device string, q Query, lastID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urlFor(watchPath(device), q.values()), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		_, err := decodeEnvelope(resp)
		if err == nil {
			err = &APIError{Status: resp.StatusCode, Code: "internal", Message: "unexpected watch status"}
		}
		return nil, err
	}
	return resp, nil
}

// run consumes SSE connections until the watch ends, re-dialing with
// the resume cursor when a connection drops mid-stream.
func (w *Watcher) run(ctx context.Context, c *Client, device string, q Query, resp *http.Response) {
	defer close(w.done)
	defer close(w.events)
	backoff := watchBackoffBase
	for {
		terminal, err := w.consume(ctx, resp)
		if terminal {
			w.setErr(err)
			return
		}
		// Connection dropped mid-stream: resume. A typed API error on
		// re-dial (device gone, service stopped) is terminal; transport
		// errors retry under capped backoff.
		for {
			if ctx.Err() != nil {
				w.setErr(ctx.Err())
				return
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				w.setErr(ctx.Err())
				return
			}
			if backoff *= 2; backoff > watchBackoffCap {
				backoff = watchBackoffCap
			}
			resp, err = c.dialWatch(ctx, device, q, w.LastEventID())
			if err == nil {
				backoff = watchBackoffBase
				break
			}
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				w.setErr(err)
				return
			}
		}
	}
}

func (w *Watcher) setErr(err error) {
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
}

// consume reads one SSE connection until it ends. terminal=true means
// the watch is over (server end event, or context done); false means
// the connection dropped and the caller should reconnect.
func (w *Watcher) consume(ctx context.Context, resp *http.Response) (terminal bool, err error) {
	defer resp.Body.Close()
	// Tie the read to ctx: closing the body unblocks the scanner.
	stop := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stop()

	var id, event string
	var data strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || data.Len() > 0 {
				if done, err := w.dispatch(ctx, id, event, data.String()); done {
					return true, err
				}
			}
			id, event = "", ""
			data.Reset()
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(line[len("data:"):]))
		}
	}
	if ctx.Err() != nil {
		return true, ctx.Err()
	}
	return false, sc.Err()
}

// dispatch handles one complete SSE frame. done=true ends the watch.
func (w *Watcher) dispatch(ctx context.Context, id, event, data string) (done bool, err error) {
	switch event {
	case "rules":
		var st WatchState
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return false, nil // skip undecodable frame, keep the stream
		}
		w.mu.Lock()
		if id != "" {
			w.lastID = id
		}
		w.mu.Unlock()
		// Coalescing delivery: displace an unconsumed older state.
		for {
			select {
			case w.events <- st:
				return false, nil
			case <-ctx.Done():
				return true, ctx.Err()
			default:
			}
			select {
			case <-w.events:
			default:
			}
		}
	case "end":
		var body struct {
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal([]byte(data), &body)
		if body.Reason == "" {
			body.Reason = "unknown"
		}
		return true, &WatchEndError{Reason: body.Reason}
	}
	return false, nil
}
