package realtime

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"daccor/internal/api"
	"daccor/internal/blktrace"
	"daccor/internal/engine"
)

// sseEvent is one decoded Server-Sent Event frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// sseStream reads an SSE response incrementally; frames arrive on
// events, which closes when the server ends the stream.
type sseStream struct {
	body   io.ReadCloser
	events chan sseEvent
}

// openSSE connects a watch stream and starts decoding frames.
func openSSE(t *testing.T, url, lastEventID string) *sseStream {
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
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch connect: status %d, body %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	s := &sseStream{body: resp.Body, events: make(chan sseEvent, 256)}
	t.Cleanup(s.close)
	go s.read()
	return s
}

func (s *sseStream) read() {
	defer close(s.events)
	sc := bufio.NewScanner(s.body)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" {
				s.events <- ev
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		}
	}
}

func (s *sseStream) close() { s.body.Close() }

// next returns the following frame, failing the test on timeout or a
// server-closed stream.
func (s *sseStream) next(t *testing.T, timeout time.Duration) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-s.events:
		if !ok {
			t.Fatal("SSE stream closed early")
		}
		return ev
	case <-time.After(timeout):
		t.Fatal("timed out waiting for SSE event")
	}
	return sseEvent{}
}

// watchBody is the wire shape of one watch state delivery.
type watchBody struct {
	Epoch      string `json:"epoch"`
	Device     string `json:"device"`
	TotalPairs int    `json:"totalPairs"`
	Rules      []struct {
		Confidence float64
	} `json:"rules"`
}

func decodeWatchBody(t *testing.T, ev sseEvent) watchBody {
	t.Helper()
	if ev.event != "rules" {
		t.Fatalf("event = %q, want rules (data %s)", ev.event, ev.data)
	}
	var b watchBody
	if err := json.Unmarshal([]byte(ev.data), &b); err != nil {
		t.Fatalf("decode watch body %q: %v", ev.data, err)
	}
	if b.Epoch != ev.id {
		t.Errorf("body epoch %q != event id %q", b.Epoch, ev.id)
	}
	return b
}

// pairAt is the learned pair (10, 20) once more at a fresh event time:
// base must be far enough from earlier traffic to flush the open
// transaction window.
func pairAt(base int64) []blktrace.Event {
	return []blktrace.Event{
		{Time: base, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 10, Len: 1}},
		{Time: base + 1000, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 20, Len: 1}},
	}
}

// advanceEpoch feeds one pairAt straight into an engine.
func advanceEpoch(t *testing.T, e *engine.Engine, id string, base int64) {
	t.Helper()
	if err := e.SubmitBatch(id, pairAt(base)); err != nil {
		t.Fatal(err)
	}
}

// epochNum extracts the epoch of a device cursor: the whole token on a
// collector ("17"), the part before the live-mirror count on an
// aggregator ("17.1").
func epochNum(t *testing.T, id string) uint64 {
	t.Helper()
	epoch, _, _ := strings.Cut(id, ".")
	n, err := strconv.ParseUint(epoch, 10, 64)
	if err != nil {
		t.Fatalf("cursor %q does not start with an epoch: %v", id, err)
	}
	return n
}

// TestWatchSSEPush pins the PR's acceptance bar: an epoch advance is
// delivered to a connected SSE watcher as a push, with zero 304
// revalidations anywhere — the watch path never falls back to
// conditional-GET polling.
func TestWatchSSEPush(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b *backend) {
		s := openSSE(t, b.url+"/v1/devices/vol0/watch?support=3&confidence=0.5&top=10", "")

		first := decodeWatchBody(t, s.next(t, 5*time.Second))
		if first.Device != "vol0" || first.TotalPairs != 1 {
			t.Fatalf("initial state = %+v", first)
		}
		if len(first.Rules) == 0 {
			t.Fatalf("initial state has no rules: %+v", first)
		}

		b.advance(t, "vol0", 100*int64(time.Second))
		second := decodeWatchBody(t, s.next(t, 5*time.Second))
		if epochNum(t, second.Epoch) <= epochNum(t, first.Epoch) {
			t.Errorf("epoch did not advance: %s -> %s", first.Epoch, second.Epoch)
		}

		// The push loop must not have minted a single 304 anywhere.
		var sb strings.Builder
		if err := b.reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sb.String(), `code="304"`) {
			t.Errorf("watch delivery produced 304 revalidations:\n%s", sb.String())
		}
		if got := b.reg.Gauge(api.MetricWatchWatchers, "").Value(); got != 1 {
			t.Errorf("watchers gauge = %g, want 1", got)
		}
	})
}

// TestWatchLongPoll covers the ?wait= fallback: an immediate answer
// without a tag, a deferred 304 when nothing changes, and a wakeup
// when the epoch advances mid-wait.
func TestWatchLongPoll(t *testing.T) {
	forEachBackend(t, testWatchLongPoll)
}

func testWatchLongPoll(t *testing.T, b *backend) {
	url := b.url + "/v1/watch?support=3&confidence=0.5&top=10&wait=30s"

	get := func(etag string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	// No If-None-Match: answered immediately.
	resp, _ := get("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("initial poll status = %d", resp.StatusCode)
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("initial poll has no ETag")
	}

	// Current tag, nothing changes: blocks for the wait, then 304.
	shortURL := b.url + "/v1/watch?support=3&confidence=0.5&top=10&wait=100ms"
	req, _ := http.NewRequest(http.MethodGet, shortURL, nil)
	req.Header.Set("If-None-Match", tag)
	start := time.Now()
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("unchanged poll status = %d, want 304", resp2.StatusCode)
	}
	if held := time.Since(start); held < 100*time.Millisecond {
		t.Errorf("long poll returned after %v, want >= 100ms hold", held)
	}
	if got := b.reg.Counter(api.MetricWatchTimeouts, "").Value(); got == 0 {
		t.Error("long-poll timeout not recorded")
	}

	// Current tag, epoch advances mid-wait: woken with fresh state.
	done := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", tag)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			done <- resp
		}
	}()
	time.Sleep(50 * time.Millisecond)
	b.advance(t, "vol0", 200*int64(time.Second))
	select {
	case resp := <-done:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("woken poll status = %d", resp.StatusCode)
		}
		if newTag := resp.Header.Get("ETag"); newTag == tag || newTag == "" {
			t.Errorf("woken poll ETag = %q, want a fresh tag != %q", newTag, tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never woke on epoch advance")
	}
}

// TestWatchResume covers Last-Event-ID semantics: a client holding the
// current cursor is not re-sent the state it already has, while a
// stale or garbled cursor gets the current state immediately.
func TestWatchResume(t *testing.T) {
	forEachBackend(t, testWatchResume)
}

func testWatchResume(t *testing.T, b *backend) {
	url := b.url + "/v1/devices/vol0/watch?support=3&confidence=0.5&top=10"

	s1 := openSSE(t, url, "")
	first := decodeWatchBody(t, s1.next(t, 5*time.Second))
	s1.close()

	// Resume holding the current cursor: no duplicate of the state the
	// client already has — the first delivery is the next advance.
	s2 := openSSE(t, url, first.Epoch)
	b.advance(t, "vol0", 300*int64(time.Second))
	resumed := decodeWatchBody(t, s2.next(t, 5*time.Second))
	if epochNum(t, resumed.Epoch) <= epochNum(t, first.Epoch) {
		t.Errorf("resume delivered a duplicate: cursor %s after %s", resumed.Epoch, first.Epoch)
	}
	s2.close()

	// A stale cursor gets the current state immediately.
	s3 := openSSE(t, url, "0")
	stale := decodeWatchBody(t, s3.next(t, 5*time.Second))
	if epochNum(t, stale.Epoch) < epochNum(t, resumed.Epoch) {
		t.Errorf("stale resume cursor %s, want >= %s", stale.Epoch, resumed.Epoch)
	}
	s3.close()

	// A garbled cursor is treated as no cursor at all.
	s4 := openSSE(t, url, "not-a-cursor")
	decodeWatchBody(t, s4.next(t, 5*time.Second))
}

// TestWatchCoalescing drives rapid ingest against one watcher and
// checks delivered cursors are strictly increasing — intermediate
// epochs are coalesced into fresh-state deliveries, never replayed.
func TestWatchCoalescing(t *testing.T) {
	forEachBackend(t, testWatchCoalescing)
}

func testWatchCoalescing(t *testing.T, b *backend) {
	s := openSSE(t, b.url+"/v1/devices/vol0/watch?support=3&confidence=0.5&top=10", "")
	first := decodeWatchBody(t, s.next(t, 5*time.Second))

	const rounds = 40
	for i := 0; i < rounds; i++ {
		b.advance(t, "vol0", (400+int64(i))*int64(time.Second))
	}

	// Drain deliveries until the cursor stops moving; every delivered
	// cursor must be strictly newer than the last.
	last := epochNum(t, first.Epoch)
	deliveries := 0
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				t.Fatal("stream closed mid-churn")
			}
			body := decodeWatchBody(t, ev)
			cur := epochNum(t, body.Epoch)
			if cur <= last {
				t.Fatalf("cursor went backwards or repeated: %d after %d", cur, last)
			}
			last = cur
			deliveries++
		case <-time.After(2 * time.Second):
			if deliveries == 0 {
				t.Fatal("no deliveries for 40 epoch advances")
			}
			if last == epochNum(t, first.Epoch) {
				t.Fatal("cursor never advanced")
			}
			return
		}
	}
}

// TestWatchStoppedTerminal pins the terminal path: a connected watcher
// is woken on Stop (Close on an aggregator) and receives the end event
// with a machine-readable reason. New watch connections to a stopped
// collector answer the same typed 503 as the query routes; a closed
// aggregator keeps serving reads from its mirrors, so a new watcher
// there gets the last state and then the same end.
func TestWatchStoppedTerminal(t *testing.T) {
	forEachBackend(t, testWatchStoppedTerminal)
}

// awaitEnd drains a stream up to its end event and returns the reason.
// Stop flushes open transactions, so a final rules delivery may precede
// the end event; it must arrive promptly either way.
func awaitEnd(t *testing.T, s *sseStream) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				t.Fatal("stream closed without an end event")
			}
			if ev.event == "rules" {
				continue
			}
			if ev.event != "end" {
				t.Fatalf("unexpected event %q", ev.event)
			}
			var body struct {
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal([]byte(ev.data), &body); err != nil {
				t.Fatal(err)
			}
			return body.Reason
		case <-deadline:
			t.Fatal("no end event after Stop")
		}
	}
}

func testWatchStoppedTerminal(t *testing.T, b *backend) {
	s := openSSE(t, b.url+"/v1/devices/vol0/watch?support=3&confidence=0.5&top=10", "")
	decodeWatchBody(t, s.next(t, 5*time.Second))

	b.stop()
	if reason := awaitEnd(t, s); reason != b.endReason {
		t.Errorf("end reason = %q, want %q", reason, b.endReason)
	}
	if b.stoppedCode == "" {
		late := openSSE(t, b.url+"/v1/watch?support=3", "")
		decodeWatchBody(t, late.next(t, 5*time.Second))
		if reason := awaitEnd(t, late); reason != b.endReason {
			t.Errorf("late watcher's end reason = %q, want %q", reason, b.endReason)
		}
		return
	}
	// New connections get the typed stopped envelope, not a stream.
	for _, path := range []string{"/v1/devices/vol0/watch", "/v1/watch", "/v1/watch?wait=1s"} {
		resp, err := http.Get(b.url + path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != b.stoppedCode {
			t.Errorf("%s: post-stop watch = %d %+v, want 503 %s", path, resp.StatusCode, env.Error, b.stoppedCode)
		}
	}
}

// TestWatchUnregisterTerminal checks a watcher of a device that is
// unregistered mid-stream receives the end event rather than hanging.
func TestWatchUnregisterTerminal(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	s := openSSE(t, srv.URL+"/v1/devices/vol1/watch?support=3&confidence=0.5&top=10", "")
	decodeWatchBody(t, s.next(t, 5*time.Second))

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/devices/vol1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}

	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				t.Fatal("stream closed without an end event")
			}
			if ev.event == "end" {
				return
			}
		case <-deadline:
			t.Fatal("no end event after unregister")
		}
	}
}

// TestWatchConcurrentChurn races many watchers against batch ingest,
// an unregister, and engine stop. Run under -race, it pins the
// wakeup/fan-out path against data races; each device watcher also
// checks its cursors stay strictly monotone.
func TestWatchConcurrentChurn(t *testing.T) {
	e, srv := servedEngine(t)
	var wg sync.WaitGroup
	drain := func(path string, monotone bool) {
		defer wg.Done()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var last uint64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "id: ") || !monotone {
				continue
			}
			cur, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Errorf("bad cursor line %q: %v", line, err)
				return
			}
			if cur <= last && last != 0 {
				t.Errorf("cursor not monotone: %d after %d", cur, last)
			}
			last = cur
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go drain("/v1/devices/vol0/watch?support=3", true)
		go drain("/v1/watch?support=3", false) // fleet cursor may shrink on unregister
	}
	// Let the watchers connect, then churn.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 30; i++ {
		base := (500 + int64(i)) * int64(time.Second)
		advanceEpoch(t, e, "vol0", base)
		if i < 15 {
			advanceEpoch(t, e, "vol1", base)
		}
		if i == 15 {
			if err := e.Unregister("vol1"); err != nil {
				t.Error(err)
			}
		}
	}
	e.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("watchers did not drain after Stop")
	}
}

// A paced stream (?interval=) still delivers every distinct state —
// advances landing inside the pacing window coalesce into the next
// delivery rather than being lost — and bad intervals are rejected.
func TestWatchDeliveryInterval(t *testing.T) {
	forEachBackend(t, testWatchDeliveryInterval)
}

func testWatchDeliveryInterval(t *testing.T, b *backend) {
	url := b.url + "/v1/devices/vol0/watch?support=1&interval=100ms"
	s := openSSE(t, url, "")
	first := decodeWatchBody(t, s.next(t, 5*time.Second))

	// Two advances in quick succession inside the pacing window: the
	// stream must deliver a newer state (possibly coalescing the two
	// into one frame), not drop it.
	base := int64(100 * time.Second)
	b.advance(t, "vol0", base)
	b.advance(t, "vol0", base+int64(time.Second))
	got := decodeWatchBody(t, s.next(t, 5*time.Second))
	if epochNum(t, got.Epoch) <= epochNum(t, first.Epoch) {
		t.Fatalf("paced stream did not advance: %q -> %q", first.Epoch, got.Epoch)
	}

	for _, bad := range []string{"interval=-1s", "interval=soon"} {
		resp, err := http.Get(b.url + "/v1/devices/vol0/watch?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestWatchBodyDescribesOneEpoch runs a writer beside SSE watchers of a
// device view and of the merged view, and holds every delivered body to
// itself: a rule's support is the counter of its pair, so wherever that
// pair is also listed in "pairs" the two numbers must agree. A body
// assembled from two captures — pairs from one epoch, rules from the
// next — breaks this as soon as the writer lands between them; a body
// cut from one State read cannot.
func TestWatchBodyDescribesOneEpoch(t *testing.T) {
	e, srv := servedEngine(t)
	t.Cleanup(e.Stop)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for base := 100 * int64(time.Second); ; base += int64(time.Second) {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.SubmitBatch("vol0", pairAt(base)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	defer writer.Wait()
	defer close(stop)

	type body struct {
		Pairs []struct {
			Pair  blktrace.Pair
			Count uint32
		} `json:"pairs"`
		Rules []struct {
			From, To blktrace.Extent
			Support  uint32
		} `json:"rules"`
	}
	for _, route := range []string{"/v1/devices/vol0/watch", "/v1/watch"} {
		s := openSSE(t, srv.URL+route+"?support=1&confidence=0&top=10", "")
		for delivery := 0; delivery < 150; delivery++ {
			ev := s.next(t, 10*time.Second)
			var b body
			if err := json.Unmarshal([]byte(ev.data), &b); err != nil {
				t.Fatalf("%s: decode %q: %v", route, ev.data, err)
			}
			counts := make(map[blktrace.Pair]uint32, len(b.Pairs))
			for _, pc := range b.Pairs {
				counts[pc.Pair] = pc.Count
			}
			if len(b.Rules) == 0 || len(counts) == 0 {
				t.Fatalf("%s: delivery %d carries no pairs or no rules: %s", route, delivery, ev.data)
			}
			for _, r := range b.Rules {
				p := blktrace.Pair{A: r.From, B: r.To}
				if r.To.Less(r.From) {
					p = blktrace.Pair{A: r.To, B: r.From}
				}
				if count, ok := counts[p]; ok && count != r.Support {
					t.Fatalf("%s: delivery %d (epoch %s) mixes two epochs: rule %v→%v has support %d, its pair is listed with count %d",
						route, delivery, ev.id, r.From, r.To, r.Support, count)
				}
			}
		}
		s.close()
	}
}
