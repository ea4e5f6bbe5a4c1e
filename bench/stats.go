package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 of 200 samples rests on two observations, which is
// an anecdote, not a tail.
const minBeyond = 10

// samples collects one timing series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns an ascending copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of an ascending series by
// nearest rank; 0 for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median of an unsorted series.
func median(v []float64) float64 { return samples(v).sorted().quantile(0.5) }

// quiet picks, from one value per round, the round that stands at the
// quiet quartile: a quarter of the rounds read better, the rest worse.
// What disturbs a round on a shared host — a neighbour on the memory
// bus, an unlucky placement of the tables in physical memory — only
// ever makes it slower, so the rounds' median moves with the host and
// their quiet quartile much less (README.md has the measurements).
func quiet(rounds []float64, better string) float64 {
	s := samples(rounds).sorted()
	k := len(s) / 4
	if better == "higher" {
		k = len(s) - 1 - k
	}
	return s[k]
}

// tailPercentile picks the highest of p99.9, p99, p95, p90, p75 that
// has at least minBeyond samples above it in a series of n, and
// reports it as (percent, ok). Short series have no reportable tail.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range []struct {
		pct      float64
		perMille int // share of samples beyond the percentile
	}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}} {
		if n*p.perMille >= minBeyond*1000 {
			return p.pct, true
		}
	}
	return 0, false
}

// summary is a timing series reduced to what the report prints: the
// median, the highest supported tail percentile, and the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

func summarize(s samples) summary {
	s = s.sorted()
	out := summary{N: len(s), P50: s.quantile(0.5)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailPct, out.Tail = p, s.quantile(p/100)
	}
	return out
}
