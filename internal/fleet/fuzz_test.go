package fleet

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"daccor/internal/blktrace"
	"daccor/internal/core"
)

// applyDeltaByMap applies a delta the way SnapshotDelta.Apply first
// did — a key map over the whole base, then a full sort (MergeSnapshots
// of one snapshot with unique keys is exactly that) — as the reference
// for the sorted-patch apply on whatever deltas the fuzzer gets past
// the decoder. conflict reports a delete of a key the base lacks.
func applyDeltaByMap(d core.SnapshotDelta, base core.Snapshot) (out core.Snapshot, conflict bool) {
	pairs := make(map[blktrace.Pair]core.PairCount, len(base.Pairs))
	for _, pc := range base.Pairs {
		pairs[pc.Pair] = pc
	}
	items := make(map[blktrace.Extent]core.ItemCount, len(base.Items))
	for _, ic := range base.Items {
		items[ic.Extent] = ic
	}
	for _, p := range d.DeletePairs {
		if _, ok := pairs[p]; !ok {
			return core.Snapshot{}, true
		}
		delete(pairs, p)
	}
	for _, e := range d.DeleteItems {
		if _, ok := items[e]; !ok {
			return core.Snapshot{}, true
		}
		delete(items, e)
	}
	for _, pc := range d.UpsertPairs {
		pairs[pc.Pair] = pc
	}
	for _, ic := range d.UpsertItems {
		items[ic.Extent] = ic
	}
	for _, pc := range pairs {
		out.Pairs = append(out.Pairs, pc)
	}
	for _, ic := range items {
		out.Items = append(out.Items, ic)
	}
	return core.MergeSnapshots(out), false
}

// FuzzDeltaDecode hammers DecodeFrame with hostile bytes. The decoder
// guards the aggregator's only write path, so the contract is strict:
// any input either decodes to a frame that re-encodes to the same
// bytes, or errors — it never panics and never allocates
// proportionally to a length field it has not validated. Every delta
// that does decode is then applied to a fixed mirror by the production
// applier and by the map-based reference: same mirror out, or a
// conflict from both.
func FuzzDeltaDecode(f *testing.F) {
	ext := func(block uint64) blktrace.Extent { return blktrace.Extent{Block: block, Len: 1} }
	// The mirror the decoded deltas meet: it holds what the seed delta
	// deletes, with counter ties so an upsert can land between equals.
	mirror := core.MergeSnapshots(core.Snapshot{
		Items: []core.ItemCount{
			{Extent: ext(8), Count: 9, Tier: core.Tier2},
			{Extent: ext(16), Count: 4, Tier: core.Tier2},
			{Extent: ext(32), Count: 4, Tier: core.Tier1},
			{Extent: ext(40), Count: 1, Tier: core.Tier1},
		},
		Pairs: []core.PairCount{
			{Pair: blktrace.MakePair(ext(8), ext(16)), Count: 4, Tier: core.Tier2},
			{Pair: blktrace.MakePair(ext(8), ext(32)), Count: 4, Tier: core.Tier2},
			{Pair: blktrace.MakePair(ext(16), ext(40)), Count: 1, Tier: core.Tier1},
		},
	})
	// Seed with valid frames of every section kind so mutation explores
	// the deep decode paths, not just the magic check.
	seedFrames := []Frame{
		{Collector: "c0", Instance: 7, Seq: 1},
		{Collector: "c0", Instance: 7, Seq: 2, Sections: []Section{
			{Device: "sda", Kind: SectionFull, Epoch: 3, Snap: core.Snapshot{
				Items: []core.ItemCount{{Extent: blktrace.Extent{Block: 8, Len: 1}, Count: 9, Tier: 2}},
				Pairs: []core.PairCount{{
					Pair:  blktrace.MakePair(blktrace.Extent{Block: 8, Len: 1}, blktrace.Extent{Block: 16, Len: 1}),
					Count: 4,
				}},
			}},
		}},
		{Collector: "c1", Instance: 1, Seq: 9, Sections: []Section{
			{Device: "sdb", Kind: SectionDelta, BaseEpoch: 2, Epoch: 5, Delta: core.SnapshotDelta{
				UpsertItems: []core.ItemCount{{Extent: blktrace.Extent{Block: 24, Len: 1}, Count: 2, Tier: 1}},
				DeleteItems: []blktrace.Extent{{Block: 8, Len: 1}},
			}},
			{Device: "sdd", Kind: SectionDelta, BaseEpoch: 1, Epoch: 2, Delta: core.SnapshotDelta{
				// Upserts out of export order, one of a held key; a held
				// pair deleted.
				UpsertItems: []core.ItemCount{{Extent: ext(40), Count: 4, Tier: 2}, {Extent: ext(24), Count: 9, Tier: 2}},
				UpsertPairs: []core.PairCount{{Pair: blktrace.MakePair(ext(24), ext(40)), Count: 4, Tier: 2}},
				DeletePairs: []blktrace.Pair{blktrace.MakePair(ext(8), ext(16))},
			}},
			{Device: "sdc", Kind: SectionRemove},
		}},
	}
	for _, fr := range seedFrames {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Seed known-bad shapes so the corpus starts on the rejection
	// paths: truncation, a duplicate device, an epoch regression.
	// EncodeFrame frames sections as given without cross-validating
	// them, so it can produce these on purpose.
	bad := []Frame{
		{Collector: "c0", Instance: 1, Seq: 3, Sections: []Section{
			{Device: "sdc", Kind: SectionRemove}, {Device: "sdc", Kind: SectionRemove},
		}},
		{Collector: "c0", Instance: 1, Seq: 4, Sections: []Section{
			{Device: "sdb", Kind: SectionDelta, BaseEpoch: 5, Epoch: 5},
		}},
	}
	for _, fr := range bad {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var trunc bytes.Buffer
	if err := EncodeFrame(&trunc, seedFrames[1]); err != nil {
		f.Fatal(err)
	}
	f.Add(trunc.Bytes()[:trunc.Len()-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must round-trip bit-exactly: decode is the
		// inverse of encode on everything it admits.
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, fr); err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("round-trip mismatch:\nin  %x\nout %x", data, buf.Bytes())
		}
		// Every invariant DecodeFrame promises must hold on its output.
		seen := make(map[string]bool, len(fr.Sections))
		for _, s := range fr.Sections {
			if s.Device == "" || seen[s.Device] {
				t.Fatalf("accepted frame with empty or duplicate device %q", s.Device)
			}
			seen[s.Device] = true
			if s.Kind != SectionDelta {
				continue
			}
			if s.Epoch <= s.BaseEpoch {
				t.Fatalf("accepted delta with epoch regression: base %d epoch %d", s.BaseEpoch, s.Epoch)
			}
			got, err := s.Delta.Apply(mirror)
			want, conflict := applyDeltaByMap(s.Delta, mirror)
			switch {
			case conflict != errors.Is(err, core.ErrDeltaConflict), err != nil && !conflict:
				t.Fatalf("device %q: Apply returned %v where the map apply says conflict=%v", s.Device, err, conflict)
			case err == nil && !reflect.DeepEqual(got, want):
				t.Fatalf("device %q: Apply and the map apply disagree\ngot  %+v\nwant %+v", s.Device, got, want)
			}
		}
	})
}
