package main

import (
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/pkg/client"
)

func state(pairs ...core.PairCount) client.WatchState { return client.WatchState{Pairs: pairs} }

func TestProbeCountOnlyAtRankOne(t *testing.T) {
	other := blktrace.MakePair(blktrace.Extent{Block: 8, Len: 8}, blktrace.Extent{Block: 64, Len: 8})
	probe := core.PairCount{Pair: probePair, Count: 5003}
	if n, ok := probeCount(state(probe, core.PairCount{Pair: other, Count: 40})); !ok || n != 5003 {
		t.Errorf("probe pair at rank 1: got %d, %v", n, ok)
	}
	if _, ok := probeCount(state(core.PairCount{Pair: other, Count: 9000}, probe)); ok {
		t.Error("probe pair at rank 2 must not count as seen")
	}
	if _, ok := probeCount(state()); ok {
		t.Error("empty state must not count as seen")
	}
	// The pair is canonical: extent order does not matter.
	if blktrace.MakePair(probeQ, probeP) != probePair {
		t.Error("probe pair is not canonical")
	}
}

func TestProberResolvesInOrderAndFlagsDisorder(t *testing.T) {
	t0 := time.Now()
	p := &prober{base: 5000, wake: make(chan struct{}, 1)}
	for k := 0; k < 3; k++ { // probes 1..3 due at t0, +50 ms, +100 ms
		p.due = append(p.due, t0.Add(time.Duration(k)*50*time.Millisecond))
		p.seenAt = append(p.seenAt, time.Time{})
	}
	at := func(count uint32) client.WatchState { return state(core.PairCount{Pair: probePair, Count: count}) }

	p.observe(at(5000), t0) // the seeded state: nothing resolved yet
	p.observe(at(5001), t0.Add(20*time.Millisecond))
	// One coalesced delivery covers probes 2 and 3.
	p.observe(at(5003), t0.Add(130*time.Millisecond))
	if !p.await(3, time.Millisecond) {
		t.Fatal("probes 1..3 not resolved")
	}
	lat, missed := p.latencies(1, 3)
	if missed != 0 || len(lat) != 3 || lat[0] != 20 || lat[1] != 80 || lat[2] != 30 {
		t.Errorf("latencies = %v (missed %d), want [20 80 30]", lat, missed)
	}
	if p.disorder != 0 {
		t.Errorf("ordered deliveries flagged as disorder: %d", p.disorder)
	}

	p.observe(at(5002), t0.Add(140*time.Millisecond)) // count went backwards
	p.observe(state(), t0.Add(150*time.Millisecond))  // probe pair lost rank 1
	if p.disorder != 2 {
		t.Errorf("disorder = %d, want 2", p.disorder)
	}
	// A probe nobody saw is reported as missed, not as a fast one.
	p.due = append(p.due, t0.Add(200*time.Millisecond))
	p.seenAt = append(p.seenAt, time.Time{})
	if p.await(4, time.Millisecond) {
		t.Error("await returned true for an unseen probe")
	}
	if _, missed := p.latencies(4, 4); missed != 1 {
		t.Errorf("missed = %d, want 1", missed)
	}
}
