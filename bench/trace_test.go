package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "cycle", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "submit", Start: 10, End: 30, Parent: 0},
		{ID: 2, Name: "sync", Start: 25, End: 60, Parent: 0},     // overlaps submit: 25..30 counted once
		{ID: 3, Name: "get", Start: 90, End: 120, Parent: 0},     // runs past its parent: clipped at 100
		{ID: 4, Name: "encode", Start: 30, End: 40, Parent: 2},   // grandchild: only sync's self time shrinks
		{ID: 5, Name: "other", Start: 200, End: 250, Parent: -1}, // no children
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		0: 100 - (20 + 30 + 10), // children cover 10..60 and 90..100
		1: 20,
		2: 35 - 10,
		3: 30,
		4: 10,
		5: 50,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerOffIsInert(t *testing.T) {
	var tr *tracer
	tb := tr.thread()
	id := tb.begin("x", -1, 0)
	tb.end(id, 1)
	tb.rename(id, "y")
	if id != -1 || tr.all() != nil {
		t.Errorf("nil tracer recorded something: id=%d spans=%v", id, tr.all())
	}
}

func TestTracerRecordsAndDumps(t *testing.T) {
	tr := newTracer()
	a, b := tr.thread(), tr.thread()
	root := a.begin("fleet.cycle", -1, 7)
	child := a.begin("engine.submit_batch", root, 7)
	a.end(child, 256)
	a.end(root, 1)
	other := b.begin("client.read", -1, 8)
	b.rename(other, spanRead304)
	b.end(other, 1)

	spans := tr.all()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	seen := map[int]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Errorf("span id %d is not unique across goroutines", s.ID)
		}
		seen[s.ID] = true
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].Parent != spans[0].ID || spans[1].Req != 7 || spans[1].Count != 256 {
		t.Errorf("child span = %+v, want parent %d, req 7, count 256", spans[1], spans[0].ID)
	}
	if dur := durations(spans); len(dur[spanRead304]) != 1 || len(dur["fleet.cycle"]) != 1 {
		t.Errorf("durations = %+v", dur)
	}

	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "start_ns", "end_ns", "parent", "req", "count", "self_ns"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("span dump lacks %q: %v", key, back[0])
		}
	}
}
