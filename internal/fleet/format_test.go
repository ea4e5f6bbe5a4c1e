package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"daccor/internal/blktrace"
	"daccor/internal/core"
)

// TestFormatBytesPinned pins the bytes of the five synopsis formats —
// the DSYN checkpoint, the snapshot body, the delta, the DFLT sync
// frame and the DFAG aggregator state — to sha256 sums taken from a
// seeded analyzer. Every format is versioned; a change to any of these
// sums without a version bump breaks checkpoints on disk or collectors
// and aggregators of different builds talking to each other.
func TestFormatBytesPinned(t *testing.T) {
	a, err := core.NewAnalyzer(core.Config{ItemCapacity: 48, PairCapacity: 96, PromoteThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	feed := func(n int) {
		for i := 0; i < n; i++ {
			tx := make([]blktrace.Extent, 0, 5)
			seen := map[blktrace.Extent]bool{}
			for len(tx) < 1+rng.Intn(5) {
				e := blktrace.Extent{Block: uint64(rng.Intn(120)) * 8, Len: uint32(1 + rng.Intn(4))}
				if !seen[e] {
					seen[e] = true
					tx = append(tx, e)
				}
			}
			a.Process(tx)
		}
	}
	feed(400)
	old := a.Snapshot(0)
	feed(60)
	snap := a.Snapshot(0)
	delta := core.DiffSnapshots(old, snap)
	if len(delta.UpsertItems) == 0 || len(delta.UpsertPairs) == 0 ||
		len(delta.DeleteItems) == 0 || len(delta.DeletePairs) == 0 {
		t.Fatalf("the pinned delta should fill all four sections: %d/%d/%d/%d",
			len(delta.UpsertItems), len(delta.UpsertPairs), len(delta.DeleteItems), len(delta.DeletePairs))
	}
	frame := Frame{Collector: "host-a", Instance: 0x0123456789abcdef, Seq: 17, Sections: []Section{
		{Device: "vol0", Kind: SectionFull, Epoch: 7, Snap: old},
		{Device: "vol1", Kind: SectionDelta, BaseEpoch: 7, Epoch: 9, Delta: delta},
		{Device: "vol2", Kind: SectionRemove},
	}}
	agg := newAggregatorAt(Config{}, newFakeClock())
	if _, err := agg.Apply(Frame{Collector: "host-a", Instance: 5, Seq: 1, Sections: []Section{
		{Device: "vol0", Kind: SectionFull, Epoch: 7, Snap: snap},
	}}, 0); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		format string
		write  func(io.Writer) error
		sum    string
	}{
		{"DSYN checkpoint", func(w io.Writer) error { _, err := a.WriteTo(w); return err },
			"95abc65f19fe6175b5addd6739357423e20ef888d26f611ceb7faf29be8f84f6"},
		{"DSYN checkpoint loaded and written again", func(w io.Writer) error {
			var ckpt bytes.Buffer
			if _, err := a.WriteTo(&ckpt); err != nil {
				return err
			}
			restored, err := core.LoadAnalyzer(&ckpt)
			if err != nil {
				return err
			}
			_, err = restored.WriteTo(w)
			return err
		}, "95abc65f19fe6175b5addd6739357423e20ef888d26f611ceb7faf29be8f84f6"},
		{"snapshot body", func(w io.Writer) error { _, err := core.EncodeSnapshotRecords(w, snap); return err },
			"8f0040fadd07303ea893fe6d8c7740a35265a176e0e3ddfa7c9dc510fbb7897f"},
		{"delta", func(w io.Writer) error { _, err := core.EncodeDelta(w, delta); return err },
			"fb9a50d6da6b86c5173c5d33a47741adccea78b16e9324785219d14698cca1f0"},
		{"DFLT frame", func(w io.Writer) error { return EncodeFrame(w, frame) },
			"f978644fb883aa989fdf9b88639b5dc9146f086fcb3fc1cf3117901667345594"},
		{"DFAG state", func(w io.Writer) error { _, err := agg.WriteTo(w); return err },
			"456a5d63664c255ce9453a15d50bbb0c00a4036ebee0e3d6fdfb908313105ea1"},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sum {
			t.Errorf("%s: %d bytes with sha256 %s, pinned %s", c.format, buf.Len(), got, c.sum)
		}
	}
}
