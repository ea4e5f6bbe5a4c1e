package core

import (
	"math"
	"reflect"
	"testing"

	"daccor/internal/blktrace"
)

// ext is shared with analyzer_test.go: ext(block, length).

func pair(a, b uint64) blktrace.Pair { return blktrace.MakePair(ext(a, 1), ext(b, 1)) }

func TestMergeSnapshotsIdentity(t *testing.T) {
	s := Snapshot{
		Pairs: []PairCount{
			{Pair: pair(1, 2), Count: 9, Tier: Tier2},
			{Pair: pair(3, 4), Count: 4, Tier: Tier1},
		},
		Items: []ItemCount{
			{Extent: ext(1, 1), Count: 9, Tier: Tier2},
			{Extent: ext(2, 1), Count: 5, Tier: Tier1},
		},
	}
	if got := MergeSnapshots(s); !reflect.DeepEqual(got, s) {
		t.Errorf("MergeSnapshots(s) = %+v, want s unchanged", got)
	}
	empty := MergeSnapshots()
	if len(empty.Pairs) != 0 || len(empty.Items) != 0 {
		t.Errorf("MergeSnapshots() = %+v, want empty", empty)
	}
}

func TestMergeSnapshotsSumsAndUnions(t *testing.T) {
	a := Snapshot{
		Pairs: []PairCount{
			{Pair: pair(1, 2), Count: 5, Tier: Tier1},
			{Pair: pair(3, 4), Count: 2, Tier: Tier1},
		},
		Items: []ItemCount{
			{Extent: ext(1, 1), Count: 5, Tier: Tier1},
		},
	}
	b := Snapshot{
		Pairs: []PairCount{
			{Pair: pair(1, 2), Count: 7, Tier: Tier2}, // overlaps a: summed, max tier
			{Pair: pair(5, 6), Count: 1, Tier: Tier1}, // unique to b
		},
		Items: []ItemCount{
			{Extent: ext(1, 1), Count: 3, Tier: Tier2},
			{Extent: ext(5, 1), Count: 1, Tier: Tier1},
		},
	}
	got := MergeSnapshots(a, b)
	want := Snapshot{
		Pairs: []PairCount{
			{Pair: pair(1, 2), Count: 12, Tier: Tier2},
			{Pair: pair(3, 4), Count: 2, Tier: Tier1},
			{Pair: pair(5, 6), Count: 1, Tier: Tier1},
		},
		Items: []ItemCount{
			{Extent: ext(1, 1), Count: 8, Tier: Tier2},
			{Extent: ext(5, 1), Count: 1, Tier: Tier1},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge = %+v, want %+v", got, want)
	}
	// Deterministic: argument order must not matter.
	if rev := MergeSnapshots(b, a); !reflect.DeepEqual(rev, got) {
		t.Errorf("merge order-dependent: %+v vs %+v", rev, got)
	}
}

// TestMergeSnapshotsEdgeCases walks the boundary inputs of the
// aggregation layer: no devices, one device, devices disagreeing on an
// entry's tier, and per-device counters whose sum exceeds the uint32
// range (which must saturate, not wrap — a wrapped counter would bury
// the fleet's hottest pair at the bottom of the merged ranking).
func TestMergeSnapshotsEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []Snapshot
		want Snapshot
	}{
		{
			name: "empty",
			in:   nil,
			want: Snapshot{},
		},
		{
			name: "all inputs empty",
			in:   []Snapshot{{}, {}, {}},
			want: Snapshot{},
		},
		{
			name: "single device passes through",
			in: []Snapshot{{
				Pairs: []PairCount{{Pair: pair(1, 2), Count: 6, Tier: Tier2}},
				Items: []ItemCount{{Extent: ext(1, 1), Count: 6, Tier: Tier2}},
			}},
			want: Snapshot{
				Pairs: []PairCount{{Pair: pair(1, 2), Count: 6, Tier: Tier2}},
				Items: []ItemCount{{Extent: ext(1, 1), Count: 6, Tier: Tier2}},
			},
		},
		{
			name: "conflicting tiers take the max either way",
			in: []Snapshot{
				{
					Pairs: []PairCount{{Pair: pair(1, 2), Count: 1, Tier: Tier2}},
					Items: []ItemCount{{Extent: ext(1, 1), Count: 1, Tier: Tier1}},
				},
				{
					Pairs: []PairCount{{Pair: pair(1, 2), Count: 1, Tier: Tier1}},
					Items: []ItemCount{{Extent: ext(1, 1), Count: 1, Tier: Tier2}},
				},
			},
			want: Snapshot{
				Pairs: []PairCount{{Pair: pair(1, 2), Count: 2, Tier: Tier2}},
				Items: []ItemCount{{Extent: ext(1, 1), Count: 2, Tier: Tier2}},
			},
		},
		{
			name: "counter overflow saturates",
			in: []Snapshot{
				{
					Pairs: []PairCount{{Pair: pair(1, 2), Count: math.MaxUint32 - 1, Tier: Tier2}},
					Items: []ItemCount{{Extent: ext(1, 1), Count: math.MaxUint32, Tier: Tier2}},
				},
				{
					Pairs: []PairCount{
						{Pair: pair(1, 2), Count: 7, Tier: Tier2},
						{Pair: pair(3, 4), Count: 5, Tier: Tier1},
					},
					Items: []ItemCount{{Extent: ext(1, 1), Count: 1, Tier: Tier2}},
				},
			},
			want: Snapshot{
				Pairs: []PairCount{
					{Pair: pair(1, 2), Count: math.MaxUint32, Tier: Tier2},
					{Pair: pair(3, 4), Count: 5, Tier: Tier1},
				},
				Items: []ItemCount{{Extent: ext(1, 1), Count: math.MaxUint32, Tier: Tier2}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeSnapshots(tc.in...)
			if len(got.Pairs) != len(tc.want.Pairs) || len(got.Items) != len(tc.want.Items) ||
				(len(got.Pairs) > 0 || len(got.Items) > 0) && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("MergeSnapshots = %+v, want %+v", got, tc.want)
			}
			// Saturation (like summation) must be commutative.
			if len(tc.in) > 1 {
				rev := MergeSnapshots(tc.in[len(tc.in)-1], tc.in[0])
				fwd := MergeSnapshots(tc.in[0], tc.in[len(tc.in)-1])
				if !reflect.DeepEqual(rev, fwd) {
					t.Errorf("merge not commutative: %+v vs %+v", rev, fwd)
				}
			}
		})
	}
}

func TestMergeSnapshotsDeterministicTieOrder(t *testing.T) {
	a := Snapshot{Pairs: []PairCount{{Pair: pair(9, 10), Count: 3, Tier: Tier1}}}
	b := Snapshot{Pairs: []PairCount{{Pair: pair(1, 2), Count: 3, Tier: Tier1}}}
	got := MergeSnapshots(a, b)
	if got.Pairs[0].Pair != pair(1, 2) {
		t.Errorf("ties must break by key order, got %+v first", got.Pairs[0])
	}
}

// TestSnapshotRulesMatchesAnalyzer pins Snapshot.TopRules(…, 0) to
// Analyzer.Rules: on a full export of a live analyzer the two must
// agree exactly, which is what makes merged rules the N-device
// generalization of the live single-device rules.
func TestSnapshotRulesMatchesAnalyzer(t *testing.T) {
	a, err := NewAnalyzer(Config{ItemCapacity: 64, PairCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	txs := [][]blktrace.Extent{
		{ext(1, 1), ext(2, 1)},
		{ext(1, 1), ext(2, 1), ext(3, 1)},
		{ext(1, 1), ext(2, 1)},
		{ext(2, 1), ext(3, 1)},
		{ext(4, 1), ext(5, 1)},
	}
	for _, tx := range txs {
		a.Process(tx)
	}
	for _, minSupport := range []uint32{0, 1, 2, 3} {
		for _, minConf := range []float64{0, 0.4, 0.9} {
			want := a.Rules(minSupport, minConf)
			got := a.Snapshot(0).TopRules(minSupport, minConf, 0)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Snapshot(0).TopRules(%d, %v, 0) = %+v, want %+v",
					minSupport, minConf, got, want)
			}
		}
	}
}

func TestSnapshotRulesMergedConfidence(t *testing.T) {
	// Two "devices" that both saw the pair (1,2): merged support is the
	// sum, and confidence uses the summed antecedent counts.
	dev := Snapshot{
		Pairs: []PairCount{{Pair: pair(1, 2), Count: 4, Tier: Tier1}},
		Items: []ItemCount{
			{Extent: ext(1, 1), Count: 4, Tier: Tier1},
			{Extent: ext(2, 1), Count: 8, Tier: Tier1},
		},
	}
	rules := MergeSnapshots(dev, dev).TopRules(5, 0, 0)
	if len(rules) != 2 {
		t.Fatalf("rules = %+v, want 2", rules)
	}
	for _, r := range rules {
		if r.Support != 8 {
			t.Errorf("merged support = %d, want 8", r.Support)
		}
	}
	// 1→2: 8/8 = 1.0 sorts first; 2→1: 8/16 = 0.5.
	if rules[0].Confidence != 1 || rules[1].Confidence != 0.5 {
		t.Errorf("confidences = %v, %v, want 1, 0.5", rules[0].Confidence, rules[1].Confidence)
	}
}
