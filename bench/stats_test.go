package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, ok: false},
		{n: 39, ok: false}, // 25 % of 39 is 9.75 samples
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i) * time.Millisecond)
	}
	sum := summarize(s)
	if sum.N != 1000 || sum.P50 != 500 || sum.TailPct != 99 || sum.Tail != 990 {
		t.Errorf("summarize = %+v; want n=1000 p50=500 p99=990", sum)
	}
	if short := summarize(s[:12]); short.TailPct != 0 || short.Tail != 0 {
		t.Errorf("12 samples support no tail percentile, got %+v", short)
	}
	if empty := summarize(nil); empty.N != 0 || empty.P50 != 0 {
		t.Errorf("empty series: %+v", empty)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestQuietTakesTheBetterQuartile(t *testing.T) {
	six := []float64{30, 10, 50, 20, 60, 40}
	if got := quiet(six, "lower"); got != 20 {
		t.Errorf("quiet(lower) of six rounds = %v, want the second lowest, 20", got)
	}
	if got := quiet(six, "higher"); got != 50 {
		t.Errorf("quiet(higher) of six rounds = %v, want the second highest, 50", got)
	}
	// Three rounds (one kind of round in the traced pass) give the best
	// one, a single round itself; the input is left alone.
	if got := quiet([]float64{3, 1, 2}, "higher"); got != 3 {
		t.Errorf("quiet(higher) of three rounds = %v, want 3", got)
	}
	if got := quiet([]float64{7}, "lower"); got != 7 {
		t.Errorf("quiet of one round = %v, want 7", got)
	}
	if six[0] != 30 {
		t.Error("quiet sorted its argument in place")
	}
}
