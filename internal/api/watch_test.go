package api

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"daccor/internal/obs"
)

// watchState is the wire shape of one watch delivery.
type watchState struct {
	Epoch      string `json:"epoch"`
	Device     string `json:"device"`
	TotalPairs int    `json:"totalPairs"`
	Pairs      []struct{ Count uint32 }
	Stamp      bool `json:"stamp"`
}

// rulesFrame decodes a `rules` frame, checking the id is the body's
// epoch.
func rulesFrame(t *testing.T, f sseFrame) watchState {
	t.Helper()
	if f.event != "rules" {
		t.Fatalf("event = %q, want rules (data %s)", f.event, f.data)
	}
	var st watchState
	if err := json.Unmarshal([]byte(f.data), &st); err != nil {
		t.Fatalf("decode %q: %v", f.data, err)
	}
	if st.Epoch != f.id {
		t.Errorf("body epoch %q != event id %q", st.Epoch, f.id)
	}
	return st
}

// TestWatchStreamDelivery walks one SSE stream through its whole life
// against the fake source, every step ordered on the handler parking
// in Wait: the initial state, a push on advance, one coalesced delivery
// for a multi-epoch jump, and the final state followed by `end` when
// the source turns terminal.
func TestWatchStreamDelivery(t *testing.T) {
	src := newFakeSource()
	srv, reg := serveFake(t, src)
	frames := openStream(t, srv.URL+"/v1/devices/a/watch?support=1", "")

	f, _ := nextFrame(t, frames)
	first := rulesFrame(t, f)
	if first.Epoch != "1.2" || first.Device != "a" || first.TotalPairs != 1 || !first.Stamp {
		t.Fatalf("initial state = %+v", first)
	}
	src.awaitParked(t)
	if got := reg.Gauge(MetricWatchWatchers, "").Value(); got != 1 {
		t.Errorf("watchers gauge = %g, want 1", got)
	}

	src.advance(1)
	f, _ = nextFrame(t, frames)
	if st := rulesFrame(t, f); st.Epoch != "2.2" || st.Pairs[0].Count != 2 {
		t.Fatalf("pushed state = %+v, want epoch 2.2 built from epoch 2", st)
	}
	src.awaitParked(t)

	// Five epochs in one wake: one delivery of the newest state, four
	// counted as coalesced.
	src.advance(5)
	f, _ = nextFrame(t, frames)
	if st := rulesFrame(t, f); st.Epoch != "7.2" {
		t.Fatalf("coalesced delivery at %s, want 7.2", st.Epoch)
	}
	src.awaitParked(t) // parked again: the delivery's accounting is done
	if n := reg.Counter(MetricWatchCoalesced, "").Value(); n != 4 {
		t.Errorf("coalesced epochs = %d, want 4", n)
	}

	// Terminal: the final state is published before the terminal error,
	// so the watcher sees it, then the reason, then EOF.
	src.advance(1)
	src.end(errFakeGone)
	f, _ = nextFrame(t, frames)
	if st := rulesFrame(t, f); st.Epoch != "8.2" {
		t.Fatalf("final state at %s, want 8.2", st.Epoch)
	}
	f, _ = nextFrame(t, frames)
	if f.event != "end" || f.id != "" || f.data != `{"reason":"gone"}` {
		t.Fatalf("terminal frame = %+v", f)
	}
	if _, ok := nextFrame(t, frames); ok {
		t.Fatal("stream stayed open after end")
	}
	if n := reg.Counter(MetricWatchEvents, "", obs.L("mode", "sse")).Value(); n != 4 {
		t.Errorf("sse deliveries = %d, want 4", n)
	}
	if n := reg.Histogram(MetricWatchState, "", obs.LatencyBuckets()).Count(); n != 4 {
		t.Errorf("state builds timed = %d, want 4: one per delivery", n)
	}
	for deadline := time.Now().Add(10 * time.Second); reg.Gauge(MetricWatchWatchers, "").Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("watcher slot never released")
		}
	}
}

// TestWatchResume: a client presenting the current cursor is not
// re-sent the state it holds — the handler parks without a delivery —
// while a stale or garbled cursor gets the current state at once.
func TestWatchResume(t *testing.T) {
	src := newFakeSource()
	srv, _ := serveFake(t, src)
	url := srv.URL + "/v1/watch?support=1"

	resumed := openStream(t, url, "1.2")
	src.awaitParked(t) // parked with nothing delivered
	src.advance(1)
	f, _ := nextFrame(t, resumed)
	if st := rulesFrame(t, f); st.Epoch != "2.2" {
		t.Fatalf("resume delivered %s first, want 2.2 (no duplicate of 1.2)", st.Epoch)
	}
	for _, last := range []string{"1.2", "0.0", "2", "not-a-cursor"} {
		f, _ := nextFrame(t, openStream(t, url, last))
		if st := rulesFrame(t, f); st.Epoch != "2.2" {
			t.Errorf("Last-Event-ID %q: first delivery %s, want the current 2.2", last, st.Epoch)
		}
	}
}

// TestWatchMidStreamFailure: a read that fails after a wake ends the
// stream with the source's reason instead of leaving it hanging.
func TestWatchMidStreamFailure(t *testing.T) {
	src := newFakeSource()
	srv, _ := serveFake(t, src)
	frames := openStream(t, srv.URL+"/v1/devices/b/watch", "")
	nextFrame(t, frames)
	src.awaitParked(t)
	src.mu.Lock()
	src.broken = errFakeGone
	src.mu.Unlock()
	src.advance(1)
	if f, _ := nextFrame(t, frames); f.event != "end" || f.data != `{"reason":"gone"}` {
		t.Fatalf("frame after failed read = %+v, want end/gone", f)
	}
}

// TestWatchInterval: advances landing inside the pacing window are
// held back and coalesced into one delivery of the newest state.
func TestWatchInterval(t *testing.T) {
	src := newFakeSource()
	srv, _ := serveFake(t, src)
	const interval = 150 * time.Millisecond
	frames := openStream(t, srv.URL+"/v1/watch?support=1&interval="+interval.String(), "")
	nextFrame(t, frames)
	start := time.Now()
	src.advance(1)
	src.advance(1)
	f, _ := nextFrame(t, frames)
	if st := rulesFrame(t, f); st.Epoch != "3.2" {
		t.Fatalf("paced delivery at %s, want the newest state 3.2", st.Epoch)
	}
	if held := time.Since(start); held < interval-10*time.Millisecond {
		t.Errorf("paced delivery after %v, want >= %v", held, interval)
	}
}

// TestWatchLongPoll: no tag answers at once; the current tag parks the
// request until an advance (200, new tag) or the wait elapsing (304);
// a terminal source answers its typed error.
func TestWatchLongPoll(t *testing.T) {
	src := newFakeSource()
	srv, reg := serveFake(t, src)
	url := srv.URL + "/v1/devices/a/watch?support=1&wait="

	resp, body := get(t, url+"30s")
	tag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || tag == "" || dataOf(t, body)["epoch"] != "1.2" || dataOf(t, body)["stamp"] != true {
		t.Fatalf("initial poll = %d, ETag %q, body %s", resp.StatusCode, tag, body)
	}

	start := time.Now()
	resp, body = get(t, url+"50ms", "If-None-Match", tag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != tag {
		t.Fatalf("unchanged poll = %d %q, ETag %q; want bodiless 304 under the same tag", resp.StatusCode, body, resp.Header.Get("ETag"))
	}
	if held := time.Since(start); held < 50*time.Millisecond {
		t.Errorf("long poll returned after %v, want >= 50ms hold", held)
	}
	if n := reg.Counter(MetricWatchTimeouts, "").Value(); n != 1 {
		t.Errorf("long-poll timeouts = %d, want 1", n)
	}
	<-src.parked // the token of the timed-out wait

	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	woken := make(chan result, 1)
	go func() {
		resp, body, err := doGet(url+"30s", "If-None-Match", tag)
		woken <- result{resp, body, err}
	}()
	src.awaitParked(t)
	src.advance(1)
	select {
	case r := <-woken:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if newTag := r.resp.Header.Get("ETag"); r.resp.StatusCode != 200 || newTag == tag || newTag == "" || dataOf(t, r.body)["epoch"] != "2.2" {
			t.Fatalf("woken poll = %d, ETag %q, body %s; want 200 at 2.2 under a fresh tag", r.resp.StatusCode, newTag, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never woke on advance")
	}

	src.end(errFakeGone)
	resp, _ = get(t, url+"30s")
	if resp.StatusCode != 200 {
		t.Fatalf("poll without a tag on a terminal source = %d, want the last state", resp.StatusCode)
	}
	if resp, body := get(t, url+"30s", "If-None-Match", resp.Header.Get("ETag")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("held poll on a terminal source = %d %s, want 503", resp.StatusCode, body)
	}
}
