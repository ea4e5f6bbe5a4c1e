package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"daccor/internal/blktrace"
)

// randomSnapshot builds a sorted snapshot over a small key universe so
// successive snapshots overlap (the interesting diff case).
func randomSnapshot(rng *rand.Rand, nItems, nPairs int) Snapshot {
	var s Snapshot
	items := make(map[blktrace.Extent]struct{})
	for len(s.Items) < nItems {
		e := blktrace.Extent{Block: uint64(rng.Intn(64) * 8), Len: uint32(1 + rng.Intn(4))}
		if _, ok := items[e]; ok {
			continue
		}
		items[e] = struct{}{}
		tier := Tier1
		if rng.Intn(2) == 0 {
			tier = Tier2
		}
		s.Items = append(s.Items, ItemCount{Extent: e, Count: uint32(1 + rng.Intn(100)), Tier: tier})
	}
	pairs := make(map[blktrace.Pair]struct{})
	for len(s.Pairs) < nPairs {
		a := blktrace.Extent{Block: uint64(rng.Intn(64) * 8), Len: uint32(1 + rng.Intn(4))}
		b := blktrace.Extent{Block: uint64(rng.Intn(64) * 8), Len: uint32(1 + rng.Intn(4))}
		if a == b {
			continue
		}
		p := blktrace.MakePair(a, b)
		if _, ok := pairs[p]; ok {
			continue
		}
		pairs[p] = struct{}{}
		tier := Tier1
		if rng.Intn(2) == 0 {
			tier = Tier2
		}
		s.Pairs = append(s.Pairs, PairCount{Pair: p, Count: uint32(1 + rng.Intn(100)), Tier: tier})
	}
	s.sort()
	return s
}

func TestDiffApplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		old := randomSnapshot(rng, rng.Intn(30), rng.Intn(30))
		new := randomSnapshot(rng, rng.Intn(30), rng.Intn(30))
		checkDiffApply(t, fmt.Sprintf("iter %d", i), old, new)
	}
}

func TestDiffIdenticalIsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSnapshot(rng, 20, 20)
	d := DiffSnapshots(s, s)
	if !d.Empty() {
		t.Fatalf("diff of identical snapshots not empty: %+v", d)
	}
}

func TestApplyConflict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randomSnapshot(rng, 10, 10)
	d := SnapshotDelta{DeletePairs: []blktrace.Pair{blktrace.MakePair(
		blktrace.Extent{Block: 1 << 40, Len: 1}, blktrace.Extent{Block: 1<<40 + 8, Len: 1})}}
	if _, err := d.Apply(base); !errors.Is(err, ErrDeltaConflict) {
		t.Fatalf("delete of absent key: got %v, want ErrDeltaConflict", err)
	}
	d = SnapshotDelta{DeleteItems: []blktrace.Extent{{Block: 1 << 40, Len: 1}}}
	if _, err := d.Apply(base); !errors.Is(err, ErrDeltaConflict) {
		t.Fatalf("delete of absent item: got %v, want ErrDeltaConflict", err)
	}
}

// mutateSnapshot derives a neighbour of s the way a table moves between
// two exports — some counters grow, some keys go, some arrive — plus the
// move a real table never makes but a merged or restored one can: the
// tier flipping under an unchanged counter, which the sort order does
// not see. Counters stay in a narrow band, so ties are everywhere.
func mutateSnapshot(rng *rand.Rand, s Snapshot) Snapshot {
	var out Snapshot
	for _, pc := range s.Pairs {
		switch rng.Intn(8) {
		case 0: // gone
			continue
		case 1:
			pc.Count += uint32(1 + rng.Intn(3))
		case 2:
			pc.Tier = Tier1 + Tier2 - pc.Tier
		}
		out.Pairs = append(out.Pairs, pc)
	}
	for _, ic := range s.Items {
		switch rng.Intn(8) {
		case 0:
			continue
		case 1:
			ic.Count += uint32(1 + rng.Intn(3))
		case 2:
			ic.Tier = Tier1 + Tier2 - ic.Tier
		}
		out.Items = append(out.Items, ic)
	}
	have := s.PairSet()
	for _, pc := range tiedSnapshot(rng, 0, rng.Intn(6)).Pairs {
		if _, ok := have[pc.Pair]; !ok {
			out.Pairs = append(out.Pairs, pc)
		}
	}
	held := make(map[blktrace.Extent]bool, len(s.Items))
	for _, ic := range s.Items {
		held[ic.Extent] = true
	}
	for _, ic := range tiedSnapshot(rng, rng.Intn(6), 0).Items {
		if !held[ic.Extent] {
			out.Items = append(out.Items, ic)
		}
	}
	out.sort()
	return out
}

// tiedSnapshot is randomSnapshot with counters from 1 to 4.
func tiedSnapshot(rng *rand.Rand, nItems, nPairs int) Snapshot {
	s := randomSnapshot(rng, nItems, nPairs)
	for i := range s.Pairs {
		s.Pairs[i].Count = uint32(1 + rng.Intn(4))
	}
	for i := range s.Items {
		s.Items[i].Count = uint32(1 + rng.Intn(4))
	}
	s.sort()
	return s
}

// checkDiffApply holds the merge-walk diff and the sorted-patch apply
// to the map-based originals on one pair of exports.
func checkDiffApply(t *testing.T, label string, a, b Snapshot) SnapshotDelta {
	t.Helper()
	d := DiffSnapshots(a, b)
	if want := diffSnapshotsByMap(a, b); !reflect.DeepEqual(d, want) {
		t.Fatalf("%s: DiffSnapshots differs from the map diff\ngot  %+v\nwant %+v", label, d, want)
	}
	got, err := d.Apply(a)
	if err != nil {
		t.Fatalf("%s: Apply: %v", label, err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("%s: Apply(Diff(a,b), a) != b\ngot  %+v\nwant %+v", label, got, b)
	}
	if want, err := applyByMap(d, a); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Apply differs from the map apply (its error: %v)", label, err)
	}
	return d
}

// TestDiffApplyDifferential: on successive exports of an evicting
// analyzer, on synthetic neighbours with tier flips and counter ties,
// and on empty and one-sided inputs, the diff is entry for entry what
// the map diff produced (so sync frames are byte for byte what they
// were), applying it reproduces the target, and a delta that does not
// fit its base is refused by both appliers alike.
func TestDiffApplyDifferential(t *testing.T) {
	t.Run("walk", func(t *testing.T) {
		a, err := NewAnalyzer(Config{ItemCapacity: 48, PairCapacity: 96})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		prev := a.Snapshot(0)
		for i, tx := range genTransactions(17, 1500, 6) {
			a.Process(tx)
			if rng.Intn(12) != 0 {
				continue
			}
			next := a.Snapshot(0)
			checkDiffApply(t, fmt.Sprintf("step %d", i), prev, next)
			prev = next
		}
		if a.Stats().PairEvictions == 0 || a.Stats().ItemEvictions == 0 {
			t.Fatal("the walk never evicted: capacities too large to exercise the claim")
		}
	})
	t.Run("neighbours", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 300; i++ {
			a := tiedSnapshot(rng, rng.Intn(40), rng.Intn(40))
			b := mutateSnapshot(rng, a)
			d := checkDiffApply(t, fmt.Sprintf("iter %d", i), a, b)
			// A decoded delta may carry its upserts in any order.
			rng.Shuffle(len(d.UpsertPairs), func(i, j int) { d.UpsertPairs[i], d.UpsertPairs[j] = d.UpsertPairs[j], d.UpsertPairs[i] })
			rng.Shuffle(len(d.UpsertItems), func(i, j int) { d.UpsertItems[i], d.UpsertItems[j] = d.UpsertItems[j], d.UpsertItems[i] })
			if got, err := d.Apply(a); err != nil || !reflect.DeepEqual(got, b) {
				t.Fatalf("iter %d: Apply with shuffled upserts != b (err %v)", i, err)
			}
		}
	})
	t.Run("edges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		full := tiedSnapshot(rng, 20, 20)
		pairsOnly, itemsOnly := Snapshot{Pairs: full.Pairs}, Snapshot{Items: full.Items}
		for name, ab := range map[string][2]Snapshot{
			"empty to empty": {{}, {}},
			"empty to full":  {{}, full},
			"full to empty":  {full, {}},
			"identical":      {full, full},
			"pairs to items": {pairsOnly, itemsOnly},
			"items to full":  {itemsOnly, full},
		} {
			d := checkDiffApply(t, name, ab[0], ab[1])
			if name == "identical" && !d.Empty() {
				t.Fatalf("diff of identical snapshots not empty: %+v", d)
			}
		}
	})
	t.Run("conflicts", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		base := tiedSnapshot(rng, 10, 10)
		next := mutateSnapshot(rng, base)
		stale := DiffSnapshots(base, next)
		if len(stale.DeletePairs)+len(stale.DeleteItems) == 0 {
			t.Fatal("the mutation deleted nothing: no conflict to provoke")
		}
		absentPair := blktrace.MakePair(blktrace.Extent{Block: 1 << 40, Len: 1}, blktrace.Extent{Block: 1<<40 + 8, Len: 1})
		for name, c := range map[string]struct {
			d    SnapshotDelta
			base Snapshot
			want error
		}{
			"delete of an absent pair":  {SnapshotDelta{DeletePairs: []blktrace.Pair{absentPair}}, base, ErrDeltaConflict},
			"delete of an absent item":  {SnapshotDelta{DeleteItems: []blktrace.Extent{absentPair.A}}, base, ErrDeltaConflict},
			"delete from an empty base": {SnapshotDelta{DeleteItems: []blktrace.Extent{base.Items[0].Extent}}, Snapshot{}, ErrDeltaConflict},
			// Applied once, the delta's deletes are gone from the result.
			"delta against the wrong base": {stale, next, ErrDeltaConflict},
			"the same key deleted twice": {SnapshotDelta{DeleteItems: []blktrace.Extent{
				base.Items[0].Extent, base.Items[0].Extent}}, base, ErrBadDelta},
			"a key upserted and deleted": {SnapshotDelta{UpsertItems: base.Items[:1],
				DeleteItems: []blktrace.Extent{base.Items[0].Extent}}, base, ErrBadDelta},
		} {
			if _, err := c.d.Apply(c.base); !errors.Is(err, c.want) {
				t.Errorf("%s: Apply returned %v, want %v", name, err, c.want)
			}
			if c.want != ErrDeltaConflict {
				continue
			}
			if _, err := applyByMap(c.d, c.base); !errors.Is(err, ErrDeltaConflict) {
				t.Errorf("%s: the map apply returned %v, want ErrDeltaConflict", name, err)
			}
		}
	})
}

// TestPatchSortedAsksDropOncePerEntry pins the contract Apply's conflict
// check leans on: drop hears every entry of prev exactly once, in
// order, wherever walkSorted places the patch entries among them.
func TestPatchSortedAsksDropOncePerEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		prev := randomSnapshot(rng, 0, 40).Pairs
		next := mutateSnapshot(rng, Snapshot{Pairs: prev}).Pairs
		patch, gone := diffSorted(prev, next, pairOps)
		drop := make(map[blktrace.Pair]bool)
		for _, k := range gone {
			drop[k] = true
		}
		for _, e := range patch {
			drop[e.Pair] = true
		}
		var asked []blktrace.Pair
		got := patchSorted(nil, prev, patch, pairOps, func(k blktrace.Pair) bool {
			asked = append(asked, k)
			return drop[k]
		})
		if !slices.Equal(got, next) {
			t.Fatalf("trial %d: patched export differs from the target", trial)
		}
		if !slices.EqualFunc(asked, prev, func(k blktrace.Pair, e PairCount) bool { return k == e.Pair }) {
			t.Fatalf("trial %d: drop was asked about %d keys for %d entries, or out of order", trial, len(asked), len(prev))
		}
	}
}

func TestDeltaWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		old := randomSnapshot(rng, rng.Intn(20), rng.Intn(20))
		new := randomSnapshot(rng, rng.Intn(20), rng.Intn(20))
		d := DiffSnapshots(old, new)
		var buf bytes.Buffer
		n, err := EncodeDelta(&buf, d)
		if err != nil {
			t.Fatalf("EncodeDelta: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("EncodeDelta returned %d, wrote %d", n, buf.Len())
		}
		got, err := DecodeDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("DecodeDelta: %v", err)
		}
		// Decoded empty sections are non-nil empty slices; normalize for
		// the comparison.
		if !equalDelta(got, d) {
			t.Fatalf("delta roundtrip mismatch\ngot  %+v\nwant %+v", got, d)
		}
	}
}

func equalDelta(a, b SnapshotDelta) bool {
	if len(a.UpsertItems) != len(b.UpsertItems) || len(a.UpsertPairs) != len(b.UpsertPairs) ||
		len(a.DeleteItems) != len(b.DeleteItems) || len(a.DeletePairs) != len(b.DeletePairs) {
		return false
	}
	for i := range a.UpsertItems {
		if a.UpsertItems[i] != b.UpsertItems[i] {
			return false
		}
	}
	for i := range a.UpsertPairs {
		if a.UpsertPairs[i] != b.UpsertPairs[i] {
			return false
		}
	}
	for i := range a.DeleteItems {
		if a.DeleteItems[i] != b.DeleteItems[i] {
			return false
		}
	}
	for i := range a.DeletePairs {
		if a.DeletePairs[i] != b.DeletePairs[i] {
			return false
		}
	}
	return true
}

func TestSnapshotRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := randomSnapshot(rng, 25, 25)
	var buf bytes.Buffer
	if _, err := EncodeSnapshotRecords(&buf, s); err != nil {
		t.Fatalf("EncodeSnapshotRecords: %v", err)
	}
	got, err := DecodeSnapshotRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeSnapshotRecords: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("snapshot records roundtrip mismatch\ngot  %+v\nwant %+v", got, s)
	}

	// A body is a sorted export: records out of export order are
	// refused, in either table.
	for name, swap := range map[string]func(Snapshot) Snapshot{
		"items": func(s Snapshot) Snapshot {
			s.Items = slices.Clone(s.Items)
			s.Items[0], s.Items[len(s.Items)-1] = s.Items[len(s.Items)-1], s.Items[0]
			return s
		},
		"pairs": func(s Snapshot) Snapshot {
			s.Pairs = slices.Clone(s.Pairs)
			s.Pairs[0], s.Pairs[len(s.Pairs)-1] = s.Pairs[len(s.Pairs)-1], s.Pairs[0]
			return s
		},
	} {
		buf.Reset()
		if _, err := EncodeSnapshotRecords(&buf, swap(s)); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshotRecords(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadSnapshotRecord) {
			t.Errorf("%s out of export order: got %v, want ErrBadSnapshotRecord", name, err)
		}
	}
}

func TestDecodeDeltaRejectsCorruption(t *testing.T) {
	e1 := blktrace.Extent{Block: 8, Len: 1}
	e2 := blktrace.Extent{Block: 16, Len: 1}
	d := SnapshotDelta{
		UpsertItems: []ItemCount{{Extent: e1, Count: 3, Tier: Tier1}},
		UpsertPairs: []PairCount{{Pair: blktrace.MakePair(e1, e2), Count: 2, Tier: Tier2}},
		DeleteItems: []blktrace.Extent{e2},
	}
	var buf bytes.Buffer
	if _, err := EncodeDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Truncation at every prefix must error, never panic.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeDelta(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	// Duplicate records: upsert the same item twice.
	dup := SnapshotDelta{UpsertItems: []ItemCount{
		{Extent: e1, Count: 3, Tier: Tier1},
		{Extent: e1, Count: 4, Tier: Tier1},
	}}
	buf.Reset()
	if _, err := EncodeDelta(&buf, dup); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("duplicate upsert: got %v, want ErrBadDelta", err)
	}

	// A key both upserted and deleted is contradictory.
	contra := SnapshotDelta{
		UpsertItems: []ItemCount{{Extent: e1, Count: 3, Tier: Tier1}},
		DeleteItems: []blktrace.Extent{e1},
	}
	buf.Reset()
	if _, err := EncodeDelta(&buf, contra); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("upsert+delete of same key: got %v, want ErrBadDelta", err)
	}

	// Hostile counts must not drive a huge allocation: a header claiming
	// maxDeltaRecords entries with no payload errors on the first read.
	hostile := make([]byte, 16)
	for i := 0; i < 16; i += 4 {
		hostile[i] = 0xFF
		hostile[i+1] = 0xFF
		hostile[i+2] = 0xFF
	}
	if _, err := DecodeDelta(bytes.NewReader(hostile)); err == nil {
		t.Fatal("hostile counts decoded successfully")
	}
}
