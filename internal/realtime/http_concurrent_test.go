package realtime

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
)

// TestHTTPQueryDuringIngest races the v1 query routes against
// sustained batched ingest: writer goroutines stream SubmitBatch into
// both devices while reader goroutines hammer the per-device and
// fleet snapshot/rules routes, including If-None-Match revalidation.
// Under -race this pins the off-worker read path — captures, the
// epoch-gated caches, and the merged-snapshot cache — as data-race
// free, and asserts every response is a well-formed 200 or 304.
func TestHTTPQueryDuringIngest(t *testing.T) {
	e, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		engine.WithDevices("vol0", "vol1"),
		engine.WithBackpressure(engine.Block),
		engine.WithQueueSize(4096),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewEngineHandler(e))
	t.Cleanup(srv.Close)

	const (
		writers   = 2 // one per device
		readers   = 4
		batches   = 50
		batchSize = 64
	)
	stopReaders := make(chan struct{})
	errc := make(chan error, writers+readers)

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(id string) {
			defer writerWG.Done()
			batch := make([]blktrace.Event, batchSize)
			for bn := 0; bn < batches; bn++ {
				for i := range batch {
					seq := bn*batchSize + i
					batch[i] = blktrace.Event{
						Time: int64(seq) * int64(10*time.Microsecond),
						Op:   blktrace.OpRead,
						Extent: blktrace.Extent{
							Block: uint64(seq%512) * 8, Len: 8,
						},
					}
				}
				if err := e.SubmitBatch(id, batch); err != nil {
					errc <- fmt.Errorf("SubmitBatch(%s): %v", id, err)
					return
				}
			}
		}(fmt.Sprintf("vol%d", w))
	}

	urls := []string{
		srv.URL + "/v1/devices/vol0/snapshot?min_support=1",
		srv.URL + "/v1/devices/vol1/rules?min_support=1",
		srv.URL + "/v1/snapshot?min_support=1",
		srv.URL + "/v1/rules?min_support=1",
	}
	var readerWG sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(rd int) {
			defer readerWG.Done()
			url := urls[rd%len(urls)]
			etag := ""
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				req, err := http.NewRequest(http.MethodGet, url, nil)
				if err != nil {
					errc <- err
					return
				}
				if etag != "" {
					req.Header.Set("If-None-Match", etag)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusNotModified:
				default:
					errc <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
				if tag := resp.Header.Get("ETag"); tag == "" {
					errc <- fmt.Errorf("GET %s: missing ETag", url)
					return
				} else {
					etag = tag
				}
			}
		}(rd)
	}

	writerWG.Wait()
	close(stopReaders)
	readerWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	e.Stop()
}

// TestHTTPETagRevalidation pins the conditional-GET contract on the
// query routes: a GET yields an ETag; replaying it with If-None-Match
// while the device is quiescent yields 304 with no body; advancing the
// state (more ingest → new epoch) turns the same tag back into a full
// 200 with a different ETag; and the tag is parameter-scoped, so the
// same epoch under different query params never revalidates.
func TestHTTPETagRevalidation(t *testing.T) {
	forEachBackend(t, testHTTPETagRevalidation)
}

func testHTTPETagRevalidation(t *testing.T, b *backend) {

	get := func(url, inm string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	for _, url := range []string{
		b.url + "/v1/devices/vol0/snapshot?min_support=2",
		b.url + "/v1/devices/vol0/rules?min_support=2",
		b.url + "/v1/snapshot?min_support=2",
		b.url + "/v1/rules?min_support=2",
	} {
		resp, body := get(url, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		tag := resp.Header.Get("ETag")
		if tag == "" {
			t.Fatalf("GET %s: no ETag", url)
		}
		if body == "" {
			t.Fatalf("GET %s: empty body on 200", url)
		}

		resp, body = get(url, tag)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("GET %s If-None-Match=%s: status %d, want 304", url, tag, resp.StatusCode)
		}
		if body != "" {
			t.Fatalf("GET %s: 304 carried a body: %q", url, body)
		}

		// A different parameterization must not revalidate against the
		// old tag even though the epoch is unchanged.
		other := url + "&top=1"
		resp, _ = get(other, tag)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s If-None-Match=%s: status %d, want 200 (tag is param-scoped)", other, tag, resp.StatusCode)
		}
	}

	// Advance the device: the next processed batch bumps the epoch, so
	// the stale tag must stop revalidating and a new tag must appear.
	url := b.url + "/v1/devices/vol0/snapshot?min_support=2"
	resp, _ := get(url, "")
	oldTag := resp.Header.Get("ETag")

	ev := blktrace.Event{Time: int64(time.Hour), Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 999, Len: 1}}
	must(t, b.feed("vol0", []blktrace.Event{ev}))
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = get(url, oldTag)
		if resp.StatusCode == http.StatusOK && resp.Header.Get("ETag") != oldTag {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale tag %s still revalidates after ingest", oldTag)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPETagAfterReregister pins that a device unregistered and
// registered again under the same ID reuses no cursor, even once it is
// fed back to the epoch count the old device had: neither the device's
// epoch nor the merged cursor repeats, and a tag taken from the old
// device answers 200 with the new device's pairs on both the device
// and the merged route.
func TestHTTPETagAfterReregister(t *testing.T) {
	e := startOne(t)
	defer e.Stop()
	srv := httptest.NewServer(NewEngineHandler(e))
	defer srv.Close()

	// feed submits two correlated pairs and a closing event one at a
	// time, each once the epoch has taken in the one before.
	feed := func(base uint64) {
		t.Helper()
		for i, off := range []uint64{0, 16, 1000, 1016, 2000} {
			at := int64(i/2) * int64(time.Second)
			if i%2 == 1 {
				at += 10_000
			}
			before, err := e.Epoch(deviceID)
			must(t, err)
			must(t, e.Submit(deviceID, blktrace.Event{Time: at, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: base + off, Len: 8}}))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err = e.WaitEpoch(ctx, deviceID, before)
			cancel()
			must(t, err)
		}
	}
	get := func(url, inm string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		must(t, err)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		must(t, err)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		must(t, err)
		return resp.StatusCode, resp.Header.Get("ETag"), string(body)
	}
	urls := []string{
		srv.URL + "/v1/devices/" + deviceID + "/rules?support=1&confidence=0.1",
		srv.URL + "/v1/rules?support=1&confidence=0.1",
	}

	start, err := e.Epoch(deviceID)
	must(t, err)
	feed(8)
	oldEpoch, err := e.Epoch(deviceID)
	must(t, err)
	oldMerged, oldDevices := e.MergedEpoch()
	oldTags, oldBodies := make([]string, len(urls)), make([]string, len(urls))
	for i, url := range urls {
		var code int
		code, oldTags[i], oldBodies[i] = get(url, "")
		if code != http.StatusOK || oldTags[i] == "" {
			t.Fatalf("GET %s: status %d, ETag %q", url, code, oldTags[i])
		}
	}

	must(t, e.Unregister(deviceID))
	must(t, e.Register(deviceID))
	restart, err := e.Epoch(deviceID)
	must(t, err)
	feed(4000)
	newEpoch, err := e.Epoch(deviceID)
	must(t, err)
	if newEpoch-restart != oldEpoch-start {
		t.Fatalf("the new device took %d epochs for the feed, the old one %d", newEpoch-restart, oldEpoch-start)
	}
	if restart <= oldEpoch {
		t.Errorf("re-registered device starts at epoch %d, not above the old device's last %d", restart, oldEpoch)
	}
	if merged, devices := e.MergedEpoch(); merged == oldMerged && devices == oldDevices {
		t.Errorf("merged cursor %d.%d repeats across the re-registration", merged, devices)
	}
	for i, url := range urls {
		code, tag, body := get(url, oldTags[i])
		if code != http.StatusOK {
			t.Fatalf("GET %s with the old device's tag %s: status %d, want 200", url, oldTags[i], code)
		}
		if tag == oldTags[i] || body == oldBodies[i] {
			t.Fatalf("GET %s: the new device answers the old tag %s and body", url, tag)
		}
	}
}
