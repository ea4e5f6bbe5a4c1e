package core

import (
	"testing"

	"daccor/internal/blktrace"
)

// probeShape fills fresh oaMaps of 8 Ki slots, each under its own
// random seed, with keys from next until each reaches its 3/4 grow
// mark. It reports the mean displacement of a key from its home slot
// over all fills, and the largest: the probe steps a lookup of that
// key walks.
func probeShape[K Key](fills int, next func(i int) K) (mean float64, max uint32) {
	var sum, keys uint64
	for f := 0; f < fills; f++ {
		m := newOAMap[K](6000)
		for i := 0; m.used < m.growAt; i++ {
			m.Set(next(i), 1)
		}
		for j := range m.slots {
			s := &m.slots[j]
			if s.val == nilSlot {
				continue
			}
			d := (uint32(j) - s.hash) & m.mask
			sum += uint64(d)
			if d > max {
				max = d
			}
		}
		keys += uint64(m.used)
	}
	return float64(sum) / float64(keys), max
}

// TestIndexProbeLengthStructuredKeys holds the synopsis key hash to
// short probe chains on the key families real block traces produce:
// aligned strides, one block at many lengths, blocks that differ only
// in their high word, and pairs that share an extent. A hash that
// leaves such structure in its low bits clusters them into long runs,
// and every Touch on the hot path pays for the run.
//
// The bounds are those of an ideal random hash, with margin. At load
// 3/4, linear probing displaces a key by 1.5 slots on average, and the
// mean over eight fills of 6 Ki keys stays within about a tenth of
// that. The longest run of a single fill has a long tail, even for an
// ideal hash: in 20 000 simulated fills of 8 Ki slots its median was
// 69, its 99.9th percentile 199 and its worst 266. So max is bounded
// at 512, far above that tail. A family the hash lines up, for
// instance one where only the high word varies, moves the mean by
// orders of magnitude, not by tenths.
func TestIndexProbeLengthStructuredKeys(t *testing.T) {
	const (
		base  = 0x3f_1234_5000
		fills = 8
	)
	a := blktrace.Extent{Block: base, Len: 8}
	for _, f := range []struct {
		name  string
		probe func() (float64, uint32)
	}{
		{"stride-8 blocks", func() (float64, uint32) {
			return probeShape(fills, func(i int) blktrace.Extent { return blktrace.Extent{Block: base + uint64(i)*8, Len: 8} })
		}},
		{"stride-4096 blocks", func() (float64, uint32) {
			return probeShape(fills, func(i int) blktrace.Extent { return blktrace.Extent{Block: base + uint64(i)*4096, Len: 1} })
		}},
		{"one block, varying Len", func() (float64, uint32) {
			return probeShape(fills, func(i int) blktrace.Extent { return blktrace.Extent{Block: base, Len: uint32(i + 1)} })
		}},
		{"blocks differing above bit 32", func() (float64, uint32) {
			return probeShape(fills, func(i int) blktrace.Extent { return blktrace.Extent{Block: uint64(i+1)<<32 | 0x1000, Len: 8} })
		}},
		{"pairs sharing A", func() (float64, uint32) {
			return probeShape(fills, func(i int) blktrace.Pair {
				return blktrace.MakePair(a, blktrace.Extent{Block: base + uint64(i+1)*8, Len: 8})
			})
		}},
	} {
		mean, max := f.probe()
		t.Logf("%s: mean displacement %.3f, max probe %d", f.name, mean, max)
		if mean > 2 || max > 512 {
			t.Errorf("%s: mean displacement %.3f (want <= 2), max probe %d (want <= 512)", f.name, mean, max)
		}
	}
}
