package fleet

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
)

// The aggregator's merged view is incrementally maintained: Apply
// feeds each section straight into the merge index, bounded reads scan
// it and only MergedSnapshot materializes it, so the from-scratch
// answer — core.MergeSnapshots over the live mirrors — is never
// computed in production. This suite recomputes it after every mutation
// and demands equality, across deltas, fulls (anti-entropy repairs),
// removes, retransmits, failed collectors, recovery, and state restore.

type fleetModel struct {
	t   *testing.T
	a   *Aggregator
	clk *fakeClock
	rng *rand.Rand
	// mirrors is what each collector's device mirror must hold now.
	mirrors map[string]map[string]core.Snapshot
	epochs  map[string]map[string]uint64
	seqs    map[string]uint64
}

func newFleetModel(t *testing.T, cfg Config) *fleetModel {
	clk := newFakeClock()
	return &fleetModel{
		t: t, a: newAggregatorAt(cfg, clk), clk: clk,
		rng:     rand.New(rand.NewSource(23)),
		mirrors: make(map[string]map[string]core.Snapshot),
		epochs:  make(map[string]map[string]uint64),
		seqs:    make(map[string]uint64),
	}
}

// genSnap builds a random canonical snapshot over a small shared
// keyspace; counts occasionally sit near the uint32 ceiling so merged
// sums saturate.
func (m *fleetModel) genSnap() core.Snapshot {
	ext := func(i int) blktrace.Extent { return blktrace.Extent{Block: uint64(i) * 8, Len: 8} }
	var s core.Snapshot
	count := func() uint32 {
		if m.rng.Intn(8) == 0 {
			return math.MaxUint32 - uint32(m.rng.Intn(100))
		}
		return 1 + uint32(m.rng.Intn(500))
	}
	tier := func() core.Tier {
		if m.rng.Intn(3) == 0 {
			return core.Tier2
		}
		return core.Tier1
	}
	for i, n := 0, m.rng.Intn(12); i < n; i++ {
		s.Items = append(s.Items, core.ItemCount{Extent: ext(m.rng.Intn(16)), Count: count(), Tier: tier()})
	}
	for i, n := 0, m.rng.Intn(12); i < n; i++ {
		a, b := m.rng.Intn(16), m.rng.Intn(16)
		if a == b {
			continue
		}
		s.Pairs = append(s.Pairs, core.PairCount{Pair: blktrace.MakePair(ext(a), ext(b)), Count: count(), Tier: tier()})
	}
	// MergeSnapshots canonicalizes: duplicate keys collapse (summed),
	// output sorted and nil-normalized.
	return core.MergeSnapshots(s)
}

func (m *fleetModel) apply(f Frame) SyncResult {
	m.t.Helper()
	res, err := m.a.Apply(f, 100)
	if err != nil {
		m.t.Fatal(err)
	}
	return res
}

func (m *fleetModel) nextSeq(c string) uint64 {
	m.seqs[c]++
	return m.seqs[c]
}

func (m *fleetModel) full(c, dev string) {
	m.t.Helper()
	snap := m.genSnap()
	if m.mirrors[c] == nil {
		m.mirrors[c] = make(map[string]core.Snapshot)
		m.epochs[c] = make(map[string]uint64)
	}
	m.epochs[c][dev]++
	m.apply(Frame{Collector: c, Instance: 1, Seq: m.nextSeq(c), Sections: []Section{
		{Device: dev, Kind: SectionFull, Epoch: m.epochs[c][dev], Snap: snap},
	}})
	m.mirrors[c][dev] = snap
}

func (m *fleetModel) delta(c, dev string) {
	m.t.Helper()
	prev, ok := m.mirrors[c][dev]
	if !ok {
		m.full(c, dev)
		return
	}
	next := m.genSnap()
	base := m.epochs[c][dev]
	m.epochs[c][dev]++
	res := m.apply(Frame{Collector: c, Instance: 1, Seq: m.nextSeq(c), Sections: []Section{
		{Device: dev, Kind: SectionDelta, BaseEpoch: base, Epoch: m.epochs[c][dev],
			Delta: core.DiffSnapshots(prev, next)},
	}})
	if res.Acks[0].Action != AckApplied {
		m.t.Fatalf("delta for %s/%s not applied: %+v", c, dev, res.Acks[0])
	}
	m.mirrors[c][dev] = next
}

func (m *fleetModel) remove(c, dev string) {
	m.t.Helper()
	m.apply(Frame{Collector: c, Instance: 1, Seq: m.nextSeq(c), Sections: []Section{
		{Device: dev, Kind: SectionRemove},
	}})
	delete(m.mirrors[c], dev)
	delete(m.epochs[c], dev)
}

func (m *fleetModel) heartbeat(c string) {
	m.t.Helper()
	m.apply(Frame{Collector: c, Instance: 1, Seq: m.nextSeq(c)})
}

// scratch is the from-scratch merge over the live mirrors.
func (m *fleetModel) scratch() core.Snapshot {
	var snaps []core.Snapshot
	for _, cs := range m.a.Collectors() {
		if cs.State == Failed {
			continue
		}
		for _, snap := range m.mirrors[cs.ID] {
			snaps = append(snaps, snap)
		}
	}
	return core.MergeSnapshots(snaps...)
}

// checkBounded asserts the bounded merged read equals the same cut of
// the from-scratch merge. It never asks the aggregator for its sorted
// export, so a run of these between applies leaves the index with
// nothing materialized.
func (m *fleetModel) checkBounded() {
	m.t.Helper()
	want := m.scratch()
	for _, minSupport := range []uint32{0, 3} {
		for _, top := range []int{0, 4, 10_000} {
			got := m.a.MergedState(minSupport, 0.1, top, core.WantPairs|core.WantRules)
			if !reflect.DeepEqual(got, want.State(minSupport, 0.1, top, core.WantPairs|core.WantRules)) {
				m.t.Fatalf("MergedState(%d, 0.1, %d) diverged from the cut of the scratch merge: %d pairs of %d / %d rules",
					minSupport, top, len(got.Pairs), got.TotalPairs, len(got.Rules))
			}
		}
	}
}

// check asserts the incremental merged view equals the from-scratch
// merge over the live mirrors, at several supports and as a bounded
// read, plus the top-K rules identity.
func (m *fleetModel) check() {
	m.t.Helper()
	m.checkBounded()
	want := m.scratch()
	for _, minSupport := range []uint32{0, 3} {
		got := m.a.MergedSnapshot(minSupport)
		if !reflect.DeepEqual(got, want.FilterSupport(minSupport)) {
			m.t.Fatalf("merged view (support %d) diverged from scratch merge: %d/%d pairs/items, want %d/%d",
				minSupport, len(got.Pairs), len(got.Items),
				len(want.FilterSupport(minSupport).Pairs), len(want.FilterSupport(minSupport).Items))
		}
	}
	// A device read hands out the one live mirror as it stands and
	// merges only when several collectors mirror the device; either way
	// it is the merge of the live mirrors.
	for _, dev := range []string{"vol0", "vol1", "absent"} {
		var mirrors []core.Snapshot
		for _, cs := range m.a.Collectors() {
			if snap, ok := m.mirrors[cs.ID][dev]; ok && cs.State != Failed {
				mirrors = append(mirrors, snap)
			}
		}
		for _, minSupport := range []uint32{0, 3} {
			got, ok := m.a.DeviceSnapshot(dev, minSupport)
			if ok != (len(mirrors) > 0) {
				m.t.Fatalf("DeviceSnapshot(%s): ok = %v with %d live mirrors", dev, ok, len(mirrors))
			}
			if want := core.MergeSnapshots(mirrors...).FilterSupport(minSupport); ok && !reflect.DeepEqual(got, want) {
				m.t.Fatalf("DeviceSnapshot(%s, %d) over %d mirrors differs from their merge: %d/%d pairs/items, want %d/%d",
					dev, minSupport, len(mirrors), len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
			}
		}
	}
	if top, wantTop := m.a.TopRules(2, 0.1, 4), want.TopRules(2, 0.1, 4); !reflect.DeepEqual(top, wantTop) {
		m.t.Fatalf("TopRules(4) != the scratch merge's top 4 (%d vs %d rules)", len(top), len(wantTop))
	}
}

func TestAggregatorIncrementalEqualsScratch(t *testing.T) {
	m := newFleetModel(t, Config{Lease: time.Second, FailAfter: 3 * time.Second})
	collectors := []string{"c0", "c1", "c2"}
	devices := []string{"vol0", "vol1"}
	for _, c := range collectors {
		for _, d := range devices {
			m.full(c, d)
			m.check()
		}
	}
	for round := 0; round < 60; round++ {
		c := collectors[m.rng.Intn(len(collectors))]
		d := devices[m.rng.Intn(len(devices))]
		switch m.rng.Intn(10) {
		case 0:
			m.full(c, d) // periodic anti-entropy style refresh
		case 1:
			m.remove(c, d)
		default:
			m.delta(c, d)
		}
		m.check()
	}

	// Long stretches of applies read only through the bounded path (the
	// export check()'s reads left behind goes stale and is given up on
	// the way), then one unbounded read: it has no predecessor to patch
	// and must still equal the scratch merge.
	for stretch := 0; stretch < 3; stretch++ {
		for round := 0; round < 40; round++ {
			c := collectors[m.rng.Intn(len(collectors))]
			d := devices[m.rng.Intn(len(devices))]
			switch m.rng.Intn(10) {
			case 0:
				m.full(c, d)
			case 1:
				m.remove(c, d)
			default:
				m.delta(c, d)
			}
			m.checkBounded()
		}
		if got, want := m.a.MergedSnapshot(0), m.scratch(); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergedSnapshot(0) after bounded-only reads diverged from scratch merge: %d/%d pairs/items, want %d/%d",
				len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
		}
	}

	// A delta that names the right base but cannot patch the mirror is
	// the anti-entropy trigger: rejected with full_required, no
	// mutation anywhere; the repair full then reconciles the union.
	c, d := "c0", "vol0"
	if _, ok := m.mirrors[c][d]; !ok {
		m.full(c, d)
	}
	bogus := core.SnapshotDelta{DeleteItems: []blktrace.Extent{{Block: 1 << 40, Len: 8}}}
	res := m.apply(Frame{Collector: c, Instance: 1, Seq: m.nextSeq(c), Sections: []Section{
		{Device: d, Kind: SectionDelta, BaseEpoch: m.epochs[c][d], Epoch: m.epochs[c][d] + 1, Delta: bogus},
	}})
	if res.Acks[0].Action != AckFullRequired {
		t.Fatalf("unappliable delta: got %+v, want full_required", res.Acks[0])
	}
	m.check()
	m.full(c, d) // the repair
	m.check()

	// Retransmit: replaying the previous frame must not disturb the
	// union (stale seq, recomputed acks only).
	prev := m.mirrors["c1"]["vol1"]
	m.apply(Frame{Collector: "c1", Instance: 1, Seq: m.seqs["c1"], Sections: []Section{
		{Device: "vol1", Kind: SectionFull, Epoch: 1, Snap: m.genSnap()},
	}})
	if !reflect.DeepEqual(m.mirrors["c1"]["vol1"], prev) {
		t.Fatal("model corrupted")
	}
	m.check()

	// Failure replays a collector's sources out of the merged view with
	// no version bump; its next frame folds the current mirrors back in.
	m.heartbeat("c0")
	m.heartbeat("c1")
	m.clk.Advance(2 * time.Second) // c2 degraded: still merged
	m.heartbeat("c0")
	m.heartbeat("c1")
	m.check()
	m.clk.Advance(2 * time.Second) // c2 over FailAfter: excluded
	m.heartbeat("c0")
	m.heartbeat("c1")
	m.check()
	m.heartbeat("c2") // back alive: mirrors re-fed unchanged
	m.check()
	m.clk.Advance(4 * time.Second) // everyone failed
	m.check()
	for _, c := range collectors { // recovery via live sections
		m.delta(c, "vol0")
	}
	m.check()

	// State restore must rebuild the index: a restored aggregator's
	// merged view equals the saved one's.
	var buf bytes.Buffer
	if _, err := m.a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := newAggregatorAt(Config{Lease: time.Second, FailAfter: 3 * time.Second}, m.clk)
	if err := b.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := b.MergedSnapshot(0), m.a.MergedSnapshot(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored merged view diverged: %d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}
	// And the restored index must keep tracking deltas.
	restored := &fleetModel{t: t, a: b, clk: m.clk, rng: m.rng,
		mirrors: m.mirrors, epochs: m.epochs, seqs: m.seqs}
	for _, c := range collectors {
		restored.delta(c, "vol1")
		restored.check()
	}
}

// TestFilterSupportNoCopy pins the suffix-cut support filter: the
// support<=1 fast path must not allocate or copy.
func TestFilterSupportNoCopy(t *testing.T) {
	s := sampleSnapshot()
	if got := s.FilterSupport(0); &got.Pairs[0] != &s.Pairs[0] || &got.Items[0] != &s.Items[0] {
		t.Fatal("FilterSupport(0) copied the slices")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.FilterSupport(0) }); allocs > 0 {
		t.Errorf("FilterSupport(0) allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.FilterSupport(5) }); allocs > 0 {
		t.Errorf("FilterSupport(5) allocates %.0f times, want 0", allocs)
	}
}
