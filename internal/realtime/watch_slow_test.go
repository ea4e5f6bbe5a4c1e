package realtime

import (
	"fmt"
	"net"
	"net/url"
	"testing"
	"time"

	"daccor/internal/api"
	"daccor/internal/blktrace"
)

// TestWatchSlowConsumerDropped proves the SSE write deadline does its
// job: a watcher that connects and then never reads a byte must not
// park its handler goroutine forever on a full TCP window. Once a
// delivery cannot be written within api.WatchWriteTimeout the stream
// is dropped — the watchers gauge returns to zero and the slow-drop
// counter records why.
func TestWatchSlowConsumerDropped(t *testing.T) {
	old := api.WatchWriteTimeout
	api.WatchWriteTimeout = 100 * time.Millisecond
	defer func() { api.WatchWriteTimeout = old }()
	forEachBackend(t, testWatchSlowConsumerDropped)
}

func testWatchSlowConsumerDropped(t *testing.T, b *backend) {

	// Fatten the watch body: thousands of distinct pairs make every
	// delivery tens of kilobytes, so a handful of unread pushes fill
	// the socket buffers and the next write actually blocks.
	var evs []blktrace.Event
	for i := 0; i < 3000; i++ {
		base := int64(1000+i) * int64(time.Second)
		evs = append(evs,
			blktrace.Event{Time: base, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: uint64(100 + 2*i), Len: 1}},
			blktrace.Event{Time: base + 1000, Op: blktrace.OpRead, Extent: blktrace.Extent{Block: uint64(101 + 2*i), Len: 1}},
		)
	}
	if err := b.feed("vol0", evs); err != nil {
		t.Fatal(err)
	}

	// A raw TCP client that sends the request and then goes silent —
	// no reads, tiny receive buffer, exactly the consumer the guard
	// exists for.
	u, err := url.Parse(b.url)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tcp, ok := conn.(*net.TCPConn); ok {
		_ = tcp.SetReadBuffer(1 << 12)
	}
	fmt.Fprintf(conn, "GET /v1/devices/vol0/watch?support=1&top=10000 HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n", u.Host)

	watchers := b.reg.Gauge(api.MetricWatchWatchers, "")
	deadline := time.Now().Add(5 * time.Second)
	for watchers.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never connected")
		}
		time.Sleep(time.Millisecond)
	}

	// Keep the state advancing so the stream keeps pushing into the
	// void until a write jams.
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-stopped }()
	go func() {
		defer close(stopped)
		base := int64(100_000) * int64(time.Second)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Best effort: the test only needs the state to keep moving.
			_ = b.feed("vol0", pairAt(base+int64(i)*int64(time.Second)))
			time.Sleep(2 * time.Millisecond)
		}
	}()

	deadline = time.Now().Add(20 * time.Second)
	for watchers.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow consumer still holds its watcher slot (gauge %g)", watchers.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := b.reg.Counter(api.MetricWatchSlowDrops, "").Value(); n == 0 {
		t.Error("stream ended but the slow-drop counter never moved")
	}
}
