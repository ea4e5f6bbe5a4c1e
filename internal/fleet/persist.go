package fleet

import (
	"errors"
	"io"
	"time"

	"daccor/internal/binio"
	"daccor/internal/core"
	"daccor/internal/engine"
)

// Aggregator state persistence: aggregatord checkpoints its mirrors so
// a restart serves the fleet view immediately instead of waiting a
// full sync round per collector. The format rides the checkpoint
// store's crash-safety (temp+fsync+rename); this file only defines the
// payload.
//
//	"DFAG" u16 version
//	u32 nCollectors, then per collector:
//	  string id | i64 lastSyncUnixNano | u64 instance | u64 lastSeq |
//	  u32 nDevices
//	  per device: string id | u64 epoch | snapshot records
//
// Epochs, instance, and lastSeq are preserved so a collector that kept
// running across our restart can continue delta-syncing against the
// restored mirrors instead of being forced through anti-entropy.

const (
	stateMagic   = "DFAG"
	stateVersion = 1
)

// ErrBadState reports a state payload that failed validation.
var ErrBadState = errors.New("fleet: invalid aggregator state")

// WriteTo serializes the mirrors; it implements io.WriterTo so an
// Aggregator can be handed straight to checkpoint.Store.Save.
func (a *Aggregator) WriteTo(w io.Writer) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	bw := binio.NewWriter(w)
	bw.Magic(stateMagic)
	bw.U16(stateVersion)
	bw.U32(uint32(len(a.collectors)))
	for id, m := range a.collectors {
		bw.String(id, MaxCollectorID)
		bw.U64(uint64(m.lastSync.UnixNano()))
		bw.U64(m.instance)
		bw.U64(m.lastSeq)
		bw.U32(uint32(len(m.devices)))
		for dev, dm := range m.devices {
			bw.String(dev, engine.MaxDeviceID)
			bw.U64(dm.epoch)
			core.WriteSnapshotRecords(bw, dm.snap)
		}
	}
	return bw.Flush()
}

// LoadState replaces the aggregator's mirrors with a previously
// serialized state. Meant for startup (before serving); it validates
// fully before touching the aggregator, so a torn checkpoint leaves
// the mirrors unchanged and the caller falls back to an older
// generation. Failures wrap ErrBadState.
func (a *Aggregator) LoadState(rd io.Reader) error {
	r := binio.NewReader(rd, ErrBadState)
	r.Magic(stateMagic)
	if v := r.U16("version"); v != stateVersion {
		r.Fail("unsupported version %d", v)
	}
	nc := r.Count("collector count", MaxFrameSections)
	loaded := make(map[string]*collectorMirror, nc)
	for i := 0; i < nc && r.Err() == nil; i++ {
		id := readID(r, "collector id", MaxCollectorID)
		if _, dup := loaded[id]; dup {
			r.Fail("duplicate collector %q", id)
		}
		m := &collectorMirror{devices: make(map[string]*deviceMirror)}
		m.lastSync = time.Unix(0, int64(r.U64("last sync")))
		m.instance = r.U64("instance")
		m.lastSeq = r.U64("last seq")
		nd := r.Count("device count", MaxFrameSections)
		for j := 0; j < nd && r.Err() == nil; j++ {
			dev := readID(r, "device id", engine.MaxDeviceID)
			if _, dup := m.devices[dev]; dup {
				r.Fail("duplicate device %q", dev)
			}
			dm := &deviceMirror{epoch: r.U64("epoch"), key: mirrorKey(id, dev)}
			dm.snap = core.ReadSnapshotRecords(r)
			m.devices[dev] = dm
		}
		loaded[id] = m
	}
	r.End()
	if err := r.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	a.collectors = loaded
	a.bumpLocked()
	return nil
}
