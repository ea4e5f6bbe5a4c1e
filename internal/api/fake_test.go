package api

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/obs"
)

// fakeSource is a hand-rolled Source whose cursor moves only when a
// test says so and which reports when a handler has parked in Wait, so
// the watch tests order their steps on events instead of sleeping.
// Every view shares one cursor; devices "a" and "b" exist.
type fakeSource struct {
	mu     sync.Mutex
	cur    Cursor
	notify chan struct{}
	over   error // terminal once set
	broken error // fails reads once set
	// parked receives one token each time a Wait is about to block.
	// Buffered well past the number of Waits any one test provokes, so
	// the source never blocks on a test that is not listening.
	parked chan struct{}
}

var errFakeGone = Errorf(http.StatusServiceUnavailable, "gone", "fake source ended")

func newFakeSource() *fakeSource {
	return &fakeSource{cur: Cursor{Epoch: 1, N: 2}, notify: make(chan struct{}), parked: make(chan struct{}, 64)}
}

// advance moves the cursor n epochs in one step and wakes waiters once:
// a watcher woken by it has coalesced n-1 states.
func (f *fakeSource) advance(n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cur.Epoch += n
	close(f.notify)
	f.notify = make(chan struct{})
}

// end makes the source terminal.
func (f *fakeSource) end(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.over = err
	close(f.notify)
	f.notify = make(chan struct{})
}

// awaitParked blocks until a handler is parked in Wait.
func (f *fakeSource) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-f.parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no handler parked in Wait")
	}
}

func (f *fakeSource) known(device string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken != nil {
		return f.broken
	}
	if device != "" && device != "a" && device != "b" {
		return Errorf(http.StatusNotFound, ErrCodeUnknownDevice, "unknown device %q", device)
	}
	return nil
}

func (f *fakeSource) Devices() []string { return []string{"a", "b"} }

func (f *fakeSource) DeviceRows() ([]map[string]any, error) {
	return []map[string]any{{"id": "a", "events": 7}, {"id": "b"}}, f.known("")
}

func (f *fakeSource) Cursor(device string) (Cursor, error) {
	if err := f.known(device); err != nil {
		return Cursor{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur, nil
}

// State serves one pair whose count is the current epoch, so a body
// names the state it was built from.
func (f *fakeSource) State(device string, support uint32, conf float64, top int, want core.Want) (State, error) {
	if err := f.known(device); err != nil {
		return State{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	x, y := blktrace.Extent{Block: 10, Len: 1}, blktrace.Extent{Block: 20, Len: 1}
	snap := core.Snapshot{
		Pairs: []core.PairCount{{Pair: blktrace.Pair{A: x, B: y}, Count: uint32(f.cur.Epoch)}},
		Items: []core.ItemCount{{Extent: x, Count: uint32(f.cur.Epoch)}, {Extent: y, Count: uint32(f.cur.Epoch)}},
	}
	return State{Cursor: f.cur, State: snap.State(support, conf, top, want)}, nil
}

func (f *fakeSource) Wait(ctx context.Context, device string, since Cursor) (time.Time, error) {
	for {
		f.mu.Lock()
		cur, ch, over := f.cur, f.notify, f.over
		f.mu.Unlock()
		if cur != since {
			return time.Now(), nil
		}
		if over != nil {
			return time.Time{}, over
		}
		f.parked <- struct{}{}
		select {
		case <-ch:
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		}
	}
}

func (f *fakeSource) EndReason(err error) string { return AsError(err).Code }

// serveFake serves src through the shared mux and middleware, stamping
// every object body with "stamp": true so the tests can see where the
// decorator applies.
func serveFake(t *testing.T, src Source) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	mux := NewMux(src, reg, func(body map[string]any) { body["stamp"] = true })
	srv := httptest.NewServer(WithMetrics(reg, mux))
	t.Cleanup(srv.Close)
	return srv, reg
}

// doGet issues one GET with optional request headers (key, value
// pairs) and returns the response with its body read.
func doGet(url string, headers ...string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// get is doGet for the test's own goroutine: any failure is fatal.
func get(t *testing.T, url string, headers ...string) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := doGet(url, headers...)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// dataOf decodes the data half of an envelope into a generic object.
func dataOf(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var env struct {
		Data map[string]any `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an object envelope: %v (body %s)", err, body)
	}
	return env.Data
}

// sseFrame is one decoded Server-Sent Event.
type sseFrame struct {
	id, event, data string
}

// openStream connects an SSE watch and decodes frames onto a channel
// that closes when the server ends the stream.
func openStream(t *testing.T, url, lastEventID string) <-chan sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("watch connect: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	// Sized so the reader goroutine never blocks on a test that stopped
	// listening; no test here provokes more than a handful of frames.
	frames := make(chan sseFrame, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var f sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if f.event != "" {
					frames <- f
				}
				f = sseFrame{}
			case strings.HasPrefix(line, "id: "):
				f.id = line[len("id: "):]
			case strings.HasPrefix(line, "event: "):
				f.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				f.data = line[len("data: "):]
			}
		}
	}()
	return frames
}

// nextFrame returns the following frame; ok is false when the server
// closed the stream instead.
func nextFrame(t *testing.T, frames <-chan sseFrame) (f sseFrame, ok bool) {
	t.Helper()
	select {
	case f, ok = <-frames:
		return f, ok
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for an SSE frame")
		return sseFrame{}, false
	}
}
