// Package fleet turns many single-host collectors into one queryable
// fleet view. Each charactld pushes its per-device synopses to an
// aggregatord over HTTP — as content deltas against the last state the
// aggregator acknowledged, falling back to full snapshots whenever the
// two sides disagree (anti-entropy). The aggregator mirrors every
// collector's devices, merges them incrementally (core.MergeIndex) as
// sections land, and keeps serving during partitions: a silent
// collector is marked degraded, then failed and excluded from the
// merge, but reads never turn into 5xxs.
//
// The sync frame is the package's wire unit. It is written and read
// through the same codec as the checkpoint format (internal/binio:
// magic, explicit version, little-endian fields, hostile-input
// validation before allocation) and its payloads are the core
// snapshot/delta record encodings, so a mirrored snapshot is
// bit-identical to what the collector exported.
package fleet

import (
	"errors"
	"fmt"
	"io"

	"daccor/internal/binio"
	"daccor/internal/core"
	"daccor/internal/engine"
)

// Frame wire constants.
const (
	frameMagic   = "DFLT"
	frameVersion = 1

	// MaxCollectorID bounds the collector ID, and engine.MaxDeviceID
	// each device ID, so a hostile frame cannot make the decoder
	// allocate unboundedly.
	MaxCollectorID = 256
	// MaxFrameSections bounds the device sections in one frame.
	MaxFrameSections = 4096
)

// ErrBadFrame reports a sync frame that failed validation: wrong
// magic or version, out-of-range identifier or section count,
// duplicate device sections, an epoch that regresses inside a delta
// section, or a corrupt payload.
var ErrBadFrame = errors.New("fleet: invalid sync frame")

// SectionKind says how one device section updates the aggregator's
// mirror of that device.
type SectionKind uint8

const (
	// SectionFull replaces the mirror with the carried snapshot —
	// the anti-entropy repair path, and the first sync of any device.
	SectionFull SectionKind = 1
	// SectionDelta patches the mirror the aggregator holds at
	// BaseEpoch up to Epoch. Applies only if the bases agree.
	SectionDelta SectionKind = 2
	// SectionRemove drops the device from the mirror (the collector
	// unregistered it).
	SectionRemove SectionKind = 3
)

func (k SectionKind) String() string {
	switch k {
	case SectionFull:
		return "full"
	case SectionDelta:
		return "delta"
	case SectionRemove:
		return "remove"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Section is one device's update inside a frame.
type Section struct {
	Device string
	Kind   SectionKind
	// BaseEpoch is the collector epoch the delta was diffed against —
	// the epoch of the state the aggregator acked last. Delta only.
	BaseEpoch uint64
	// Epoch is the collector epoch of the carried state. Full and
	// delta.
	Epoch uint64
	Snap  core.Snapshot      // full
	Delta core.SnapshotDelta // delta
}

// Frame is one collector→aggregator sync: a sequence number (the
// idempotency key — retries of a lost response reuse it, so the
// aggregator can tell a retransmit from new state) and the device
// sections changed since the last acked round. A frame with no
// sections is a heartbeat: it renews the collector's lease without
// touching any mirror.
//
// Instance scopes the sequence numbers: each sync client draws a
// random instance at startup, so a restarted collector (whose seqs
// begin again at 1) is recognized as a new incarnation instead of
// having its first frames dropped as retransmits of the old one.
type Frame struct {
	Collector string
	Instance  uint64
	Seq       uint64
	Sections  []Section
}

// EncodeFrame writes f in the DFLT wire format:
//
//	frame:   magic "DFLT" | u16 version | string collector | u64 instance
//	         | u64 seq | u32 sections | section…
//	section: string device | u8 kind | kind's payload
//	full:    u64 epoch | snapshot body (core.WriteSnapshotRecords)
//	delta:   u64 base epoch | u64 epoch | delta (core.WriteDelta)
//	remove:  no payload
//
// A string is a u16 length and its bytes.
func EncodeFrame(w io.Writer, f Frame) error {
	if len(f.Sections) > MaxFrameSections {
		return fmt.Errorf("%w: %d sections exceeds limit %d", ErrBadFrame, len(f.Sections), MaxFrameSections)
	}
	bw := binio.NewWriter(w)
	encodeHeader(bw, f)
	for _, s := range f.Sections {
		if err := encodeSection(bw, s); err != nil {
			return err
		}
	}
	_, err := bw.Flush()
	return err
}

// encodeHeader writes a frame's fields up to its section count; the
// sections follow back to back.
func encodeHeader(bw *binio.Writer, f Frame) {
	bw.Magic(frameMagic)
	bw.U16(frameVersion)
	bw.String(f.Collector, MaxCollectorID)
	bw.U64(f.Instance)
	bw.U64(f.Seq)
	bw.U32(uint32(len(f.Sections)))
}

// encodeSection writes one section.
func encodeSection(bw *binio.Writer, s Section) error {
	bw.String(s.Device, engine.MaxDeviceID)
	bw.U8(uint8(s.Kind))
	switch s.Kind {
	case SectionFull:
		bw.U64(s.Epoch)
		core.WriteSnapshotRecords(bw, s.Snap)
	case SectionDelta:
		bw.U64(s.BaseEpoch)
		bw.U64(s.Epoch)
		core.WriteDelta(bw, s.Delta)
	case SectionRemove:
		// No payload.
	default:
		return fmt.Errorf("%w: unknown section kind %d", ErrBadFrame, s.Kind)
	}
	return nil
}

// DecodeFrame parses and validates one sync frame. Hostile input —
// truncation anywhere, oversized identifiers or counts, duplicate
// device sections, a delta whose Epoch does not advance past its
// BaseEpoch (an epoch regression: collector epochs are monotone, so a
// frame claiming otherwise is corrupt or confused and must not touch
// a mirror), corrupt snapshot or delta records, trailing bytes — fails
// with ErrBadFrame and the offset; it never panics and never allocates
// proportionally to a claimed count before validating it.
func DecodeFrame(rd io.Reader) (Frame, error) {
	r := binio.NewReader(rd, ErrBadFrame)
	r.Magic(frameMagic)
	if v := r.U16("version"); v != frameVersion {
		r.Fail("unsupported version %d", v)
	}
	f := Frame{Collector: readID(r, "collector id", MaxCollectorID)}
	f.Instance = r.U64("instance")
	f.Seq = r.U64("seq")
	n := r.Count("section count", MaxFrameSections)
	seen := make(map[string]struct{}, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		s := Section{Device: readID(r, "device id", engine.MaxDeviceID)}
		if _, dup := seen[s.Device]; dup {
			// Two sections for one device would make the applied state
			// depend on section order; reject rather than guess.
			r.Fail("duplicate section for device %q", s.Device)
		}
		seen[s.Device] = struct{}{}
		s.Kind = SectionKind(r.U8("section kind"))
		switch s.Kind {
		case SectionFull:
			s.Epoch = r.U64("epoch")
			s.Snap = core.ReadSnapshotRecords(r)
		case SectionDelta:
			s.BaseEpoch = r.U64("base epoch")
			if s.Epoch = r.U64("epoch"); s.Epoch <= s.BaseEpoch {
				r.Fail("delta epoch %d does not advance past base %d", s.Epoch, s.BaseEpoch)
			}
			s.Delta = core.ReadDelta(r)
		case SectionRemove:
			// No payload.
		default:
			r.Fail("unknown section kind %d", s.Kind)
		}
		f.Sections = append(f.Sections, s)
	}
	r.End()
	if err := r.Err(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// readID reads a collector or device identifier, which must not be
// empty.
func readID(r *binio.Reader, what string, max int) string {
	id := r.String(what, max)
	if id == "" {
		r.Fail("empty %s", what)
	}
	return id
}
