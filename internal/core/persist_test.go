package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"daccor/internal/blktrace"
)

func randomTransactions(rng *rand.Rand, n int) [][]blktrace.Extent {
	txs := make([][]blktrace.Extent, n)
	for i := range txs {
		size := 1 + rng.Intn(5)
		seen := map[blktrace.Extent]struct{}{}
		for len(txs[i]) < size {
			e := ext(uint64(rng.Intn(50)), uint32(1+rng.Intn(4)))
			if _, dup := seen[e]; dup {
				continue
			}
			seen[e] = struct{}{}
			txs[i] = append(txs[i], e)
		}
	}
	return txs
}

func TestPersistRoundTrip(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 16, PairCapacity: 16})
	rng := rand.New(rand.NewSource(3))
	for _, tx := range randomTransactions(rng, 200) {
		a.Process(tx)
	}
	var buf bytes.Buffer
	n, err := a.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	b, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatalf("LoadAnalyzer: %v", err)
	}
	if !reflect.DeepEqual(a.Snapshot(0), b.Snapshot(0)) {
		t.Error("snapshot mismatch after round trip")
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats mismatch: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Config() != b.Config() {
		t.Errorf("config mismatch: %+v vs %+v", a.Config(), b.Config())
	}
	if err := b.Items().CheckInvariants(); err != nil {
		t.Errorf("restored item table: %v", err)
	}
	if err := b.Pairs().CheckInvariants(); err != nil {
		t.Errorf("restored pair table: %v", err)
	}
}

// itemRecord and pairRecord are the checkpoint's record layouts as
// binary.Write lays them out — fields packed in declaration order, no
// padding — the reference TestEncodeRecordLayout holds the encoder to.
type itemRecord struct {
	Tier  uint8
	Count uint32
	Block uint64
	Len   uint32
}

type pairRecord struct {
	Tier           uint8
	Count          uint32
	ABlock, BBlock uint64
	ALen, BLen     uint32
}

// TestEncodeRecordLayout pins the record encoding of records.go to the
// reflective reference layout (binary.Write of itemRecord/pairRecord
// in declaration order). If the encoder drifts, on-disk snapshots stop
// round-tripping.
func TestEncodeRecordLayout(t *testing.T) {
	item := Entry[blktrace.Extent]{
		Key: ext(0x1122334455667788, 0x99aabbcc), Count: 0xdeadbeef, Tier: Tier2,
	}
	pair := Entry[blktrace.Pair]{
		Key: blktrace.Pair{
			A: ext(0x0102030405060708, 0x0a0b0c0d),
			B: ext(0x1112131415161718, 0x1a1b1c1d),
		},
		Count: 0xcafef00d, Tier: Tier1,
	}
	var got bytes.Buffer
	if _, err := encodeSnapshot(&got, Config{ItemCapacity: 16, PairCapacity: 16}, Stats{},
		[]Entry[blktrace.Extent]{item}, []Entry[blktrace.Pair]{pair}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, v := range []any{
		itemRecord{Tier: uint8(item.Tier), Count: item.Count, Block: item.Key.Block, Len: item.Key.Len},
		pairRecord{
			Tier: uint8(pair.Tier), Count: pair.Count,
			ABlock: pair.Key.A.Block, ALen: pair.Key.A.Len,
			BBlock: pair.Key.B.Block, BLen: pair.Key.B.Len,
		},
	} {
		if err := binary.Write(&want, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	// The stream is header | u32 count | item record | u32 count | pair
	// record; check both records byte-for-byte where they sit.
	itemSize, pairSize := binary.Size(itemRecord{}), binary.Size(pairRecord{})
	stream := got.Bytes()
	itemOff := len(stream) - pairSize - 4 - itemSize
	wantItem := want.Bytes()[:itemSize]
	if !bytes.Equal(stream[itemOff:itemOff+itemSize], wantItem) {
		t.Errorf("item record bytes drifted from binary.Write layout")
	}
	pairOff := len(stream) - pairSize
	if !bytes.Equal(stream[pairOff:], want.Bytes()[itemSize:]) {
		t.Errorf("pair record bytes drifted from binary.Write layout")
	}
}

// The strong property: a restored analyzer behaves identically to the
// original on any subsequent stream — recency order, eviction choices,
// promotions, everything.
func TestPersistBehavioralEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewAnalyzer(Config{
			ItemCapacity: 2 + rng.Intn(10),
			PairCapacity: 2 + rng.Intn(10),
		})
		if err != nil {
			return false
		}
		for _, tx := range randomTransactions(rng, 100) {
			a.Process(tx)
		}
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			return false
		}
		b, err := LoadAnalyzer(&buf)
		if err != nil {
			return false
		}
		// Drive both with the same further stream.
		for _, tx := range randomTransactions(rng, 100) {
			a.Process(tx)
			b.Process(tx)
		}
		return reflect.DeepEqual(a.Snapshot(0), b.Snapshot(0)) && a.Stats() == b.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPersistEmptyAnalyzer(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 8, PairCapacity: 8})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAnalyzer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Items().Len() != 0 || b.Pairs().Len() != 0 {
		t.Error("restored empty analyzer not empty")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadAnalyzer(strings.NewReader("")); !errors.Is(err, ErrBadSnapshotMagic) {
		t.Errorf("empty input: %v", err)
	}
	if _, err := LoadAnalyzer(strings.NewReader("NOPE nonsense")); !errors.Is(err, ErrBadSnapshotMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Valid snapshot with clobbered version.
	a := mustAnalyzer(t, Config{ItemCapacity: 4, PairCapacity: 4})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 0xFF
	if _, err := LoadAnalyzer(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshotVersion) {
		t.Errorf("bad version: %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 8, PairCapacity: 8})
	a.Process([]blktrace.Extent{ext(1, 1), ext(2, 1)})
	a.Process([]blktrace.Extent{ext(1, 1), ext(2, 1)})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail, never panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := LoadAnalyzer(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// snapshotBytes returns a valid snapshot of a small exercised analyzer
// plus the byte offsets of the header fields, so tests can corrupt
// specific fields in place.
func snapshotBytes(t *testing.T) (data []byte, off struct{ itemCap, pairCap, ratio, nItems int }) {
	t.Helper()
	a := mustAnalyzer(t, Config{ItemCapacity: 8, PairCapacity: 8})
	a.Process([]blktrace.Extent{ext(1, 1), ext(2, 1)})
	a.Process([]blktrace.Extent{ext(1, 1), ext(2, 1)})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// magic(4) | version u16 | itemCap u64 | pairCap u64 |
	// threshold u32 | ratioBits u64 | stats | nItems u32 | ...
	off.itemCap = 4 + 2
	off.pairCap = off.itemCap + 8
	off.ratio = off.pairCap + 8 + 4
	off.nItems = off.ratio + 8 + binary.Size(Stats{})
	return buf.Bytes(), off
}

// A corrupt or hostile header must be rejected with a located error
// before it can size an allocation — int(1<<40) must never reach a
// table build.
func TestLoadRejectsHostileHeader(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(data []byte, off struct{ itemCap, pairCap, ratio, nItems int })
	}{
		{"item capacity huge", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint64(d[o.itemCap:], 1<<40)
		}},
		{"item capacity zero", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint64(d[o.itemCap:], 0)
		}},
		{"pair capacity overflows int", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint64(d[o.pairCap:], 1<<63)
		}},
		{"tier ratio NaN", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint64(d[o.ratio:], math.Float64bits(math.NaN()))
		}},
		{"tier ratio +Inf", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint64(d[o.ratio:], math.Float64bits(math.Inf(1)))
		}},
		{"tier ratio negative", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint64(d[o.ratio:], math.Float64bits(-0.5))
		}},
		{"item count exceeds capacity", func(d []byte, o struct{ itemCap, pairCap, ratio, nItems int }) {
			binary.LittleEndian.PutUint32(d[o.nItems:], 1<<30)
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			data, off := snapshotBytes(t)
			tc.corrupt(data, off)
			_, err := LoadAnalyzer(bytes.NewReader(data))
			if !errors.Is(err, ErrBadSnapshotHeader) {
				t.Fatalf("got %v, want ErrBadSnapshotHeader", err)
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Errorf("error %q does not locate the bad field", err)
			}
		})
	}
}

// Decode failures must say where the stream went bad.
func TestLoadErrorsCarryOffsets(t *testing.T) {
	data, off := snapshotBytes(t)
	if _, err := LoadAnalyzer(bytes.NewReader(data[:off.nItems+2])); err == nil ||
		!strings.Contains(err.Error(), "offset") {
		t.Errorf("truncation error %v lacks an offset", err)
	}
	// Duplicate item record: copy the first record over the second.
	recSize := binary.Size(itemRecord{})
	first := data[off.nItems+4 : off.nItems+4+recSize]
	copy(data[off.nItems+4+recSize:], first)
	_, err := LoadAnalyzer(bytes.NewReader(data))
	if !errors.Is(err, ErrBadSnapshotRecord) {
		t.Fatalf("duplicate record: got %v, want ErrBadSnapshotRecord", err)
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("record error %q lacks an offset", err)
	}
}

func TestLoadRejectsNonCanonicalPair(t *testing.T) {
	a := mustAnalyzer(t, Config{ItemCapacity: 8, PairCapacity: 8})
	a.Process([]blktrace.Extent{ext(1, 1), ext(2, 1)})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The pair record sits at the end; swap A and B blocks (bytes are
	// little-endian u64s at fixed offsets from the tail).
	// Rather than compute offsets, corrupt by brute force: flip the
	// final pair's A block to something larger than B.
	// pairRecord layout: tier u8, pad..., easier: just corrupt last 12
	// bytes (B extent) to zeros, making B < A.
	for i := len(data) - 12; i < len(data); i++ {
		data[i] = 0
	}
	if _, err := LoadAnalyzer(bytes.NewReader(data)); err == nil {
		t.Error("corrupted pair accepted")
	}
}
