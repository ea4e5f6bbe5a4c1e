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
// The sync frame is the package's wire unit. Its framing follows the
// checkpoint format's discipline (magic, explicit version, hand-rolled
// little-endian records, hostile-input validation before allocation)
// and its payloads are the core snapshot/delta record encodings, so a
// mirrored snapshot is bit-identical to what the collector exported.
package fleet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"daccor/internal/core"
)

// Frame wire constants.
const (
	frameMagic   = "DFLT"
	frameVersion = 1

	// MaxCollectorID and MaxDeviceID bound identifier strings so a
	// hostile frame cannot make the decoder allocate unboundedly.
	MaxCollectorID = 256
	MaxDeviceID    = 256
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

// EncodeFrame writes f in the DFLT wire format.
func EncodeFrame(w io.Writer, f Frame) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(frameMagic)
	var u16 [2]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint16(u16[:], frameVersion)
	bw.Write(u16[:])
	if err := writeString(bw, f.Collector, MaxCollectorID); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(u64[:], f.Instance)
	bw.Write(u64[:])
	binary.LittleEndian.PutUint64(u64[:], f.Seq)
	bw.Write(u64[:])
	if len(f.Sections) > MaxFrameSections {
		return fmt.Errorf("%w: %d sections exceeds limit %d", ErrBadFrame, len(f.Sections), MaxFrameSections)
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(f.Sections)))
	bw.Write(u32[:])
	for _, s := range f.Sections {
		if err := writeString(bw, s.Device, MaxDeviceID); err != nil {
			return err
		}
		bw.WriteByte(byte(s.Kind))
		switch s.Kind {
		case SectionFull:
			binary.LittleEndian.PutUint64(u64[:], s.Epoch)
			bw.Write(u64[:])
			if _, err := core.EncodeSnapshotRecords(bw, s.Snap); err != nil {
				return err
			}
		case SectionDelta:
			binary.LittleEndian.PutUint64(u64[:], s.BaseEpoch)
			bw.Write(u64[:])
			binary.LittleEndian.PutUint64(u64[:], s.Epoch)
			bw.Write(u64[:])
			if _, err := core.EncodeDelta(bw, s.Delta); err != nil {
				return err
			}
		case SectionRemove:
			// No payload.
		default:
			return fmt.Errorf("%w: unknown section kind %d", ErrBadFrame, s.Kind)
		}
	}
	return bw.Flush()
}

// DecodeFrame parses and validates one sync frame. Hostile input —
// truncation anywhere, oversized identifiers or counts, duplicate
// device sections, a delta whose Epoch does not advance past its
// BaseEpoch (an epoch regression: collector epochs are monotone, so a
// frame claiming otherwise is corrupt or confused and must not touch
// a mirror), corrupt snapshot or delta records — errors; it never
// panics and never allocates proportionally to a claimed count before
// validating it.
func DecodeFrame(r io.Reader) (Frame, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: short magic: %v", ErrBadFrame, err)
	}
	if string(magic[:]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, magic)
	}
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: short version: %v", ErrBadFrame, err)
	}
	if v := binary.LittleEndian.Uint16(u16[:]); v != frameVersion {
		return Frame{}, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, v)
	}
	var f Frame
	var err error
	if f.Collector, err = readString(br, MaxCollectorID); err != nil {
		return Frame{}, fmt.Errorf("%w: collector id: %v", ErrBadFrame, err)
	}
	if f.Collector == "" {
		return Frame{}, fmt.Errorf("%w: empty collector id", ErrBadFrame)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: short instance: %v", ErrBadFrame, err)
	}
	f.Instance = binary.LittleEndian.Uint64(u64[:])
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: short seq: %v", ErrBadFrame, err)
	}
	f.Seq = binary.LittleEndian.Uint64(u64[:])
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: short section count: %v", ErrBadFrame, err)
	}
	n := binary.LittleEndian.Uint32(u32[:])
	if n > MaxFrameSections {
		return Frame{}, fmt.Errorf("%w: %d sections exceeds limit %d", ErrBadFrame, n, MaxFrameSections)
	}
	seen := make(map[string]struct{}, n)
	for i := uint32(0); i < n; i++ {
		var s Section
		if s.Device, err = readString(br, MaxDeviceID); err != nil {
			return Frame{}, fmt.Errorf("%w: section %d device: %v", ErrBadFrame, i, err)
		}
		if s.Device == "" {
			return Frame{}, fmt.Errorf("%w: section %d: empty device id", ErrBadFrame, i)
		}
		if _, dup := seen[s.Device]; dup {
			// Two sections for one device would make the applied state
			// depend on section order; reject rather than guess.
			return Frame{}, fmt.Errorf("%w: duplicate section for device %q", ErrBadFrame, s.Device)
		}
		seen[s.Device] = struct{}{}
		kind, err := br.ReadByte()
		if err != nil {
			return Frame{}, fmt.Errorf("%w: section %d kind: %v", ErrBadFrame, i, err)
		}
		s.Kind = SectionKind(kind)
		switch s.Kind {
		case SectionFull:
			if _, err := io.ReadFull(br, u64[:]); err != nil {
				return Frame{}, fmt.Errorf("%w: section %d epoch: %v", ErrBadFrame, i, err)
			}
			s.Epoch = binary.LittleEndian.Uint64(u64[:])
			if s.Snap, err = core.DecodeSnapshotRecords(br); err != nil {
				return Frame{}, fmt.Errorf("%w: section %d snapshot: %v", ErrBadFrame, i, err)
			}
		case SectionDelta:
			if _, err := io.ReadFull(br, u64[:]); err != nil {
				return Frame{}, fmt.Errorf("%w: section %d base epoch: %v", ErrBadFrame, i, err)
			}
			s.BaseEpoch = binary.LittleEndian.Uint64(u64[:])
			if _, err := io.ReadFull(br, u64[:]); err != nil {
				return Frame{}, fmt.Errorf("%w: section %d epoch: %v", ErrBadFrame, i, err)
			}
			s.Epoch = binary.LittleEndian.Uint64(u64[:])
			if s.Epoch <= s.BaseEpoch {
				return Frame{}, fmt.Errorf("%w: section %d: delta epoch %d does not advance past base %d",
					ErrBadFrame, i, s.Epoch, s.BaseEpoch)
			}
			if s.Delta, err = core.DecodeDelta(br); err != nil {
				return Frame{}, fmt.Errorf("%w: section %d delta: %v", ErrBadFrame, i, err)
			}
		case SectionRemove:
			// No payload.
		default:
			return Frame{}, fmt.Errorf("%w: section %d: unknown kind %d", ErrBadFrame, i, kind)
		}
		f.Sections = append(f.Sections, s)
	}
	// Trailing bytes mean the sender and receiver disagree about the
	// frame length — a framing bug that must not pass silently.
	if _, err := br.ReadByte(); err != io.EOF {
		return Frame{}, fmt.Errorf("%w: trailing bytes after last section", ErrBadFrame)
	}
	return f, nil
}

func writeString(bw *bufio.Writer, s string, max int) error {
	if len(s) > max {
		return fmt.Errorf("%w: identifier %d bytes exceeds limit %d", ErrBadFrame, len(s), max)
	}
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(s)))
	bw.Write(u16[:])
	_, err := bw.WriteString(s)
	return err
}

func readString(br *bufio.Reader, max int) (string, error) {
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(u16[:]))
	if n > max {
		return "", fmt.Errorf("length %d exceeds limit %d", n, max)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
