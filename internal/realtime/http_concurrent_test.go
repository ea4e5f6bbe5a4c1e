package realtime

import (
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
