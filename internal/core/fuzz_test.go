package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

// FuzzLoadAnalyzer hardens snapshot restoration against arbitrary
// bytes: it must never panic, and any state it accepts must satisfy
// the table invariants and survive a save/load round trip.
func FuzzLoadAnalyzer(f *testing.F) {
	a, err := NewAnalyzer(Config{ItemCapacity: 4, PairCapacity: 4})
	if err != nil {
		f.Fatal(err)
	}
	a.Process([]blktrace.Extent{{Block: 1, Len: 1}, {Block: 2, Len: 2}})
	a.Process([]blktrace.Extent{{Block: 1, Len: 1}, {Block: 2, Len: 2}})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("DSYN"))
	f.Add(bytes.Repeat([]byte{0xFF}, 128))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadAnalyzer(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Items().CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates item invariants: %v", err)
		}
		if err := got.Pairs().CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates pair invariants: %v", err)
		}
		if err := got.CheckMembershipInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates membership invariants: %v", err)
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted snapshot failed to re-save: %v", err)
		}
		if _, err := LoadAnalyzer(&out); err != nil {
			t.Fatalf("re-saved snapshot failed to load: %v", err)
		}
	})
}

// FuzzReadSnapshot targets the snapshot decoder's error discipline:
// arbitrary input must either load cleanly or fail with one of the
// typed ErrBadSnapshot* sentinels (or a located truncation wrapping
// io.EOF/ErrUnexpectedEOF) — never a panic, never an unclassified
// error, and never an allocation sized by a hostile header field.
func FuzzReadSnapshot(f *testing.F) {
	a, err := NewAnalyzer(Config{ItemCapacity: 4, PairCapacity: 4})
	if err != nil {
		f.Fatal(err)
	}
	a.Process([]blktrace.Extent{{Block: 1, Len: 1}, {Block: 2, Len: 2}})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Seed the hostile-header shapes: huge capacities, poisoned ratio,
	// inflated record counts.
	for _, m := range []struct {
		off int
		v   uint64
	}{
		{6, 1 << 40},                          // itemCap
		{14, 1 << 63},                         // pairCap
		{26, math.Float64bits(math.NaN())},    // ratioBits
		{26, math.Float64bits(math.Inf(-1))},  // ratioBits
		{len(valid) - 4, 0xFFFFFFFF_FFFFFFFF}, // clobber the tail
	} {
		mut := bytes.Clone(valid)
		if m.off+8 <= len(mut) {
			binary.LittleEndian.PutUint64(mut[m.off:], m.v)
		}
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadAnalyzer(bytes.NewReader(data))
		if err != nil {
			switch {
			case errors.Is(err, ErrBadSnapshotMagic),
				errors.Is(err, ErrBadSnapshotVersion),
				errors.Is(err, ErrBadSnapshotHeader),
				errors.Is(err, ErrBadSnapshotRecord):
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			default:
				t.Fatalf("unclassified load error: %v", err)
			}
			return
		}
		if c := got.Config(); c.ItemCapacity > MaxSnapshotCapacity || c.PairCapacity > MaxSnapshotCapacity {
			t.Fatalf("accepted snapshot with out-of-bounds capacities: %+v", c)
		}
		if err := got.Items().CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates item invariants: %v", err)
		}
		if err := got.Pairs().CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates pair invariants: %v", err)
		}
	})
}

// FuzzTableOps drives an arbitrary operation stream (touch, demote,
// remove, capture) against a small arena-backed table, checking the
// structural and free-list invariants — no double-free, no lost slots,
// index and lists consistent — after every operation, and at every
// capture the change record against a shadow kept the obvious way: each
// entry's stamp is the capture sequence at its last touch, and the
// discards the capture reports since the one before are exactly the
// keys evicted or removed in between, in order, unless it says the ring
// lapped — which it may only say when more went than the ring holds.
// Each input runs with uint64, Extent and Pair keys.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 1, 0, 2, 1, 3, 0, 5})
	f.Add([]byte{1, 1, 2})
	f.Add(bytes.Repeat([]byte{2, 7}, 40))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 4, 0, 0, 3, 0, 1, 4, 0, 3, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		fuzzTableOps(t, data, uint64Key)
		fuzzTableOps(t, data, extentKey)
		fuzzTableOps(t, data, pairKey)
	})
}

func fuzzTableOps[K Key](t *testing.T, data []byte, key func(uint64) K) {
	cfg := TableConfig{
		Capacity1:        1 + int(data[0]%8),
		Capacity2:        1 + int(data[1]%8),
		PromoteThreshold: 2 + uint32(data[2]%3),
	}
	var gone []K // discarded since the last capture, in order
	tbl, err := NewTable[K](cfg, func(k K, _ uint32) { gone = append(gone, k) })
	if err != nil {
		t.Fatal(err)
	}
	stamps := map[K]uint32{}
	seq := uint32(1)
	var c captureLog[K]
	var buf []Entry[K]
	for i := 3; i+1 < len(data); i += 2 {
		k := key(uint64(data[i+1] % 32))
		switch data[i] % 5 {
		case 0, 1:
			tbl.Touch(k)
			stamps[k] = seq
		case 2:
			tbl.Demote(k)
		case 3:
			if tbl.Remove(k) {
				gone = append(gone, k)
			}
		case 4:
			before := c.discards
			buf = tbl.capture(buf[:0], &c)
			for j, e := range buf {
				if c.stamps[j] != stamps[e.Key] {
					t.Fatalf("after op %d: capture %d stamps %v with %d, last touched in period %d",
						i, seq, e.Key, c.stamps[j], stamps[e.Key])
				}
			}
			if since, ok := c.goneSince(before); ok {
				if !slices.Equal(since, gone) {
					t.Fatalf("after op %d: capture %d reports discards %v, the table made %v", i, seq, since, gone)
				}
			} else if len(gone) <= goneLogLen(tbl.Capacity()) {
				t.Fatalf("after op %d: capture %d lost %d discards its ring has room for", i, seq, len(gone))
			}
			gone = gone[:0]
			seq++
		}
		if err := tbl.checkInvariants(); err != nil {
			t.Fatalf("after op %d: %v", i, err)
		}
	}
}

// FuzzOpenAddrIndex pins the backward-shift deletion discipline of
// the open-addressing machinery against arbitrary operation streams,
// run differentially against a builtin map. The load-bearing property
// is tombstone-freedom: after any delete, no occupied slot's probe
// path from its home slot may cross an empty slot (a gap would make
// lookups lose reachable keys), and every live key must stay findable
// at its recorded value. checkInvariants asserts exactly that after
// every single operation. Each input runs with uint64, Extent and Pair
// keys.
func FuzzOpenAddrIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 0, 3, 2, 2, 1, 3})
	f.Add(bytes.Repeat([]byte{0, 5, 2, 5}, 32)) // set/delete churn on one key
	f.Add(bytes.Repeat([]byte{1, 7, 2, 8}, 48)) // interleaved insert/delete
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOpenAddrIndex(t, data, uint64Key)
		fuzzOpenAddrIndex(t, data, extentKey)
		fuzzOpenAddrIndex(t, data, pairKey)
	})
}

func fuzzOpenAddrIndex[K Key](t *testing.T, data []byte, key func(uint64) K) {
	m := newOAMap[K](0)
	shadow := map[K]int32{}
	for i := 0; i+1 < len(data); i += 2 {
		// A 48-key space over a table that starts at minimum size
		// keeps the load factor high and the collision runs long, so
		// deletes constantly exercise the backward shift (and inserts
		// the grow/rehash).
		k := key(uint64(data[i+1]) % 48)
		switch data[i] % 4 {
		case 0, 1: // set / overwrite
			v := int32(data[i+1]%127) + 1
			m.Set(k, v)
			shadow[k] = v
		case 2: // delete
			_, want := shadow[k]
			if got := m.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%v) = %v, shadow %v", i, k, got, want)
			}
			delete(shadow, k)
		case 3: // lookup
			got, ok := m.Get(k)
			want, wok := shadow[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%v) = (%d,%v), shadow (%d,%v)", i, k, got, ok, want, wok)
			}
		}
		if m.Len() != len(shadow) {
			t.Fatalf("op %d: Len %d, shadow %d", i, m.Len(), len(shadow))
		}
		if err := m.checkInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for k, v := range shadow {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("final: Get(%v) = (%d,%v), shadow %d", k, got, ok, v)
		}
	}
}

// FuzzAnalyzerMembership drives transaction streams through a small
// analyzer, unpartitioned and split two ways, and checks after every
// transaction that the intrusive pair-membership lists stay an exact
// mirror of the live correlation table: each owned extent's list, by
// item slot or among the orphans, reaches exactly the live pairs that
// contain it. Items of a 3-entry tier are evicted while their pairs
// live on and admitted again, which moves lists to the orphans and
// back.
func FuzzAnalyzerMembership(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 5, 6})
	f.Add(bytes.Repeat([]byte{9, 8, 7, 0}, 16))
	// Pair (1,2); singles evict 1 and 2 while it lives; 1 and 2 return.
	f.Add([]byte{1, 2, 0, 3, 0, 4, 0, 5, 0, 1, 0, 2, 0, 1, 2, 0})
	// Both members evicted, one re-admitted beside a new partner, then
	// the old pair evicted out of the orphan list.
	f.Add([]byte{1, 2, 3, 0, 4, 5, 6, 0, 1, 7, 0, 8, 9, 10, 11, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{ItemCapacity: 3, PairCapacity: 3}
		a, err := NewAnalyzer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Analyzer, 2)
		pcfg, err := cfg.Split(len(parts))
		if err != nil {
			t.Fatal(err)
		}
		for k := range parts {
			if parts[k], err = NewAnalyzer(pcfg); err != nil {
				t.Fatal(err)
			}
		}
		var universe []blktrace.Extent
		for b := range 48 {
			universe = append(universe, fuzzExtent(byte(b)))
		}
		var tx []blktrace.Extent
		flush := func() {
			a.Process(tx)
			if err := checkMembershipOracle(a, universe, 0, 1); err != nil {
				t.Fatalf("P=1 after %v: %v", tx, err)
			}
			for k, p := range parts {
				p.ProcessPartition(tx, k, len(parts))
				if err := checkMembershipOracle(p, universe, k, len(parts)); err != nil {
					t.Fatalf("P=2 after %v: %v", tx, err)
				}
			}
			tx = tx[:0]
		}
		for _, b := range data {
			if b == 0 || len(tx) >= 6 {
				flush()
				continue
			}
			// The monitor guarantees deduplicated extents.
			if e := fuzzExtent(b); !slices.Contains(tx, e) {
				tx = append(tx, e)
			}
		}
		flush()
		if err := a.Items().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := a.Pairs().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzExtent maps a fuzz byte onto one of 48 extents; bytes 0 to 47
// name each once.
func fuzzExtent(b byte) blktrace.Extent {
	return blktrace.Extent{Block: uint64(b % 16), Len: 1 + uint32(b%3)}
}
