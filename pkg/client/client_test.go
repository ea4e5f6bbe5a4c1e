package client

import (
	"encoding/json"
	"testing"

	"daccor/internal/blktrace"
)

// BenchmarkSubmitEventsEncode prices building one 300-event ingest
// body: json is the reflection encoder SubmitEvents used to run over a
// wire-struct slice, append is appendEvents into a fresh pre-sized
// buffer, as SubmitEvents runs it.
// The bytes are identical (TestSubmitEventsBodyBytes in
// internal/realtime).
func BenchmarkSubmitEventsEncode(b *testing.B) {
	const n = 300
	evs := make([]blktrace.Event, n)
	for i := range evs {
		evs[i] = blktrace.Event{Time: 1_000_000_000 + int64(i)*1000, PID: uint32(i % 7),
			Op: blktrace.Op(i % 2), Extent: blktrace.Extent{Block: 123_456 + 8*uint64(i), Len: 8}}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
	}
	b.Run("json", func(b *testing.B) {
		type wireEvent struct {
			Time  int64  `json:"time"`
			PID   uint32 `json:"pid"`
			Op    string `json:"op"`
			Block uint64 `json:"block"`
			Len   uint32 `json:"len"`
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire := make([]wireEvent, len(evs))
			for j, ev := range evs {
				op := "read"
				if ev.Op == blktrace.OpWrite {
					op = "write"
				}
				wire[j] = wireEvent{ev.Time, ev.PID, op, ev.Extent.Block, ev.Extent.Len}
			}
			if _, err := json.Marshal(map[string]any{"events": wire}); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			appendEvents(make([]byte, 0, 64+80*len(evs)), evs)
		}
		report(b)
	})
}
