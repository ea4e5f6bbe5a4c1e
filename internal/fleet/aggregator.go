package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/obs"
)

// Aggregator defaults: a collector syncing every second comfortably
// renews a 10s lease; one silent for a minute has missed dozens of
// rounds and its mirror is no longer worth merging.
const (
	DefaultLease     = 10 * time.Second
	DefaultFailAfter = 60 * time.Second
)

// ErrClosed reports an operation on a closed aggregator.
var ErrClosed = errors.New("fleet: aggregator closed")

// Aggregator metric families.
const (
	MetricFleetSyncs      = "daccor_fleet_syncs_total"
	MetricFleetSyncBytes  = "daccor_fleet_sync_bytes_total"
	MetricFleetSections   = "daccor_fleet_sections_total"
	MetricFleetRejects    = "daccor_fleet_delta_rejects_total"
	MetricFleetCollectors = "daccor_fleet_collectors"
	MetricFleetMaxSyncAge = "daccor_fleet_max_sync_age_seconds"
)

// CollectorState is the aggregator's view of one collector's liveness,
// derived from its last successful sync: within the lease it is
// healthy; past the lease it is degraded — its mirror still serves,
// marked stale; past FailAfter it is failed and excluded from merged
// reads until it syncs again.
type CollectorState int

const (
	Healthy CollectorState = iota
	Degraded
	Failed
)

func (s CollectorState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config tunes an Aggregator.
type Config struct {
	// Lease is how long a sync keeps a collector healthy; 0 selects
	// DefaultLease.
	Lease time.Duration
	// FailAfter is the silence after which a collector is failed and
	// dropped from merged reads; 0 selects DefaultFailAfter. It is
	// clamped up to Lease.
	FailAfter time.Duration
	// Metrics receives the aggregator's instruments; nil creates a
	// private registry.
	Metrics *obs.Registry
}

// Ack actions: what the aggregator did with one device section.
const (
	// AckApplied: the mirror now holds the section's state.
	AckApplied = "applied"
	// AckFullRequired: the section could not be applied (unknown
	// device, base epoch mismatch, or a delta that failed to apply) —
	// the collector must send a full snapshot for this device next
	// round. This is the anti-entropy trigger.
	AckFullRequired = "full_required"
)

// Ack is the aggregator's per-section answer to a sync frame.
type Ack struct {
	Device string `json:"device"`
	Action string `json:"action"`
	// Epoch echoes the collector epoch the mirror holds after the
	// section was processed (0 for removes).
	Epoch uint64 `json:"epoch"`
}

// SyncResult is the body answered to POST /v1/sync.
type SyncResult struct {
	Collector string `json:"collector"`
	Seq       uint64 `json:"seq"`
	Acks      []Ack  `json:"acks"`
}

// CollectorStatus is one collector's externally visible sync state.
type CollectorStatus struct {
	ID          string
	State       CollectorState
	LastSyncAge time.Duration
	Devices     int
	Syncs       uint64
	Rejects     uint64
	Bytes       uint64
}

// deviceMirror is the aggregator's copy of one collector device: the
// snapshot exactly as the collector exported it (support 0), and the
// collector epoch it corresponds to — the base a delta must name to
// apply.
type deviceMirror struct {
	snap  core.Snapshot
	epoch uint64
	// key names the mirror as a source of the merge index (mirrorKey).
	key string
}

// collectorMirror is everything the aggregator holds for one
// collector.
type collectorMirror struct {
	lastSync time.Time
	// instance scopes lastSeq: sequence numbers only order frames from
	// one client incarnation, so a frame carrying a new instance resets
	// the gate instead of being misread as a retransmit.
	instance uint64
	lastSeq  uint64
	devices  map[string]*deviceMirror
	syncs    uint64
	rejects  uint64
	bytes    uint64
}

func (m *collectorMirror) state(now time.Time, lease, failAfter time.Duration) CollectorState {
	age := now.Sub(m.lastSync)
	switch {
	case age <= lease:
		return Healthy
	case age <= failAfter:
		return Degraded
	default:
		return Failed
	}
}

// Aggregator mirrors a fleet of collectors and serves their merged
// synopsis. All methods are safe for concurrent use.
type Aggregator struct {
	lease     time.Duration
	failAfter time.Duration
	metrics   *obs.Registry

	// now is the clock; tests shorten partitions by replacing it
	// before the aggregator starts serving.
	now func() time.Time

	mu         sync.Mutex
	collectors map[string]*collectorMirror
	closed     bool
	// version counts mirror mutations — the epoch half of every view's
	// cursor. notify wakes wait blockers on every version bump and ends
	// them on Close.
	version uint64
	notify  *engine.EpochNotifier

	// idx is the union of every live mirror, one source per (collector,
	// device), held by reference and synced to the non-Failed
	// collectors' mirrors (syncIndexLocked) after every mutation and
	// before every merged read — the read's sync takes out a collector
	// that crossed FailAfter without a version bump. Merged reads scan
	// it without holding mu, and only MergedSnapshot materializes it.
	// idxMu nests inside mu (mu → idxMu) and is never held across a
	// blocking call.
	idxMu sync.Mutex
	idx   *core.MergeIndex

	syncsTotal    *obs.Counter
	bytesTotal    *obs.Counter
	rejectsTotal  *obs.Counter
	sectionsFull  *obs.Counter
	sectionsDelta *obs.Counter
	sectionsRm    *obs.Counter
}

// NewAggregator builds an aggregator from cfg.
func NewAggregator(cfg Config) *Aggregator {
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.FailAfter < cfg.Lease {
		cfg.FailAfter = cfg.Lease
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	a := &Aggregator{
		lease:      cfg.Lease,
		failAfter:  cfg.FailAfter,
		metrics:    reg,
		now:        time.Now,
		collectors: make(map[string]*collectorMirror),
		notify:     engine.NewEpochNotifier(),
		idx:        core.NewMergeIndex(),

		syncsTotal:    reg.Counter(MetricFleetSyncs, "Sync frames accepted, including heartbeats and retransmits."),
		bytesTotal:    reg.Counter(MetricFleetSyncBytes, "Sync frame payload bytes accepted."),
		rejectsTotal:  reg.Counter(MetricFleetRejects, "Delta sections rejected with full_required (anti-entropy repairs triggered)."),
		sectionsFull:  reg.Counter(MetricFleetSections, "Device sections applied, by kind.", obs.L("kind", "full")),
		sectionsDelta: reg.Counter(MetricFleetSections, "Device sections applied, by kind.", obs.L("kind", "delta")),
		sectionsRm:    reg.Counter(MetricFleetSections, "Device sections applied, by kind.", obs.L("kind", "remove")),
	}
	for _, st := range []CollectorState{Healthy, Degraded, Failed} {
		st := st
		reg.GaugeFunc(MetricFleetCollectors, "Known collectors, by liveness state.", func() float64 {
			n := 0
			for _, c := range a.Collectors() {
				if c.State == st {
					n++
				}
			}
			return float64(n)
		}, obs.L("state", st.String()))
	}
	reg.GaugeFunc(MetricFleetMaxSyncAge, "Age of the stalest non-failed collector's last sync, in seconds.", func() float64 {
		return a.MaxSyncAge().Seconds()
	})
	return a
}

// Metrics returns the aggregator's registry.
func (a *Aggregator) Metrics() *obs.Registry { return a.metrics }

// Apply processes one sync frame and reports per-section acks. bytes
// is the encoded frame size, accounted to the collector's counters.
//
// Frames are seq-gated per collector incarnation: a frame whose Seq
// does not exceed the last applied one from the same Instance is a
// retransmit (the collector re-sent after losing our response) or a
// stale delivery from a partitioned path. Retransmits never mutate
// mirrors — the acks are recomputed from the mirrors' current epochs,
// which for a true retransmit reproduce the lost response. A frame
// with a different Instance is a restarted collector starting its
// sequence over; its first frame must apply, not be dropped as a
// replay of the previous incarnation.
func (a *Aggregator) Apply(f Frame, bytes int) (SyncResult, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return SyncResult{}, ErrClosed
	}
	m := a.collectors[f.Collector]
	if m == nil {
		m = &collectorMirror{devices: make(map[string]*deviceMirror)}
		a.collectors[f.Collector] = m
	}
	res := SyncResult{Collector: f.Collector, Seq: f.Seq, Acks: make([]Ack, 0, len(f.Sections))}
	if f.Instance != m.instance {
		m.instance = f.Instance
		m.lastSeq = 0
	}
	// A frame from a failed (or never-seen) collector grows the live
	// set, which changes the merge even when the frame is a bare
	// heartbeat. Bumping the version for it is what lets a cursor count
	// live collectors instead of naming them: at one version the live
	// set can only shrink.
	now := a.now()
	mutated := m.state(now, a.lease, a.failAfter) == Failed
	retransmit := m.lastSeq != 0 && f.Seq <= m.lastSeq
	for _, s := range f.Sections {
		dev := m.devices[s.Device]
		switch s.Kind {
		case SectionRemove:
			if retransmit {
				if dev == nil {
					res.Acks = append(res.Acks, Ack{Device: s.Device, Action: AckApplied})
				} else {
					res.Acks = append(res.Acks, Ack{Device: s.Device, Action: AckFullRequired, Epoch: dev.epoch})
				}
				continue
			}
			if dev != nil {
				delete(m.devices, s.Device)
				mutated = true
			}
			a.sectionsRm.Inc()
			res.Acks = append(res.Acks, Ack{Device: s.Device, Action: AckApplied})
		case SectionFull:
			if retransmit {
				res.Acks = append(res.Acks, a.retransmitAck(dev, s))
				continue
			}
			m.devices[s.Device] = &deviceMirror{snap: s.Snap, epoch: s.Epoch, key: mirrorKey(f.Collector, s.Device)}
			mutated = true
			a.sectionsFull.Inc()
			res.Acks = append(res.Acks, Ack{Device: s.Device, Action: AckApplied, Epoch: s.Epoch})
		case SectionDelta:
			if retransmit {
				res.Acks = append(res.Acks, a.retransmitAck(dev, s))
				continue
			}
			if dev == nil || dev.epoch != s.BaseEpoch {
				m.rejects++
				a.rejectsTotal.Inc()
				ack := Ack{Device: s.Device, Action: AckFullRequired}
				if dev != nil {
					ack.Epoch = dev.epoch
				}
				res.Acks = append(res.Acks, ack)
				continue
			}
			next, err := s.Delta.Apply(dev.snap)
			if err != nil {
				// The delta names our base epoch but does not patch our
				// snapshot — the mirrors have drifted (a bug or a torn
				// state somewhere). Anti-entropy repairs it: demand a
				// full snapshot rather than serve a corrupt merge.
				m.rejects++
				a.rejectsTotal.Inc()
				res.Acks = append(res.Acks, Ack{Device: s.Device, Action: AckFullRequired, Epoch: dev.epoch})
				continue
			}
			dev.snap, dev.epoch = next, s.Epoch
			mutated = true
			a.sectionsDelta.Inc()
			res.Acks = append(res.Acks, Ack{Device: s.Device, Action: AckApplied, Epoch: s.Epoch})
		}
	}
	m.lastSync = now
	if f.Seq > m.lastSeq {
		m.lastSeq = f.Seq
	}
	m.syncs++
	m.bytes += uint64(bytes)
	a.syncsTotal.Inc()
	a.bytesTotal.Add(uint64(bytes))
	if mutated {
		a.bumpLocked()
	}
	return res, nil
}

// retransmitAck recomputes the ack a lost response would have carried:
// if the mirror already holds the section's epoch the original apply
// succeeded; anything else demands a full sync, which is always safe.
func (a *Aggregator) retransmitAck(dev *deviceMirror, s Section) Ack {
	if dev != nil && dev.epoch == s.Epoch {
		return Ack{Device: s.Device, Action: AckApplied, Epoch: s.Epoch}
	}
	ack := Ack{Device: s.Device, Action: AckFullRequired}
	if dev != nil {
		ack.Epoch = dev.epoch
	}
	return ack
}

// bumpLocked advances the version, syncs the merge index to the mirrors
// (letting go of replaced ones) and wakes watchers. Caller holds mu.
func (a *Aggregator) bumpLocked() {
	a.version++
	a.idxMu.Lock()
	a.syncIndexLocked()
	a.idxMu.Unlock()
	a.notify.Wake(nil)
}

// syncIndexLocked syncs the merge index to the mirrors of the
// collectors that are not Failed. Caller holds mu and idxMu.
func (a *Aggregator) syncIndexLocked() {
	now := a.now()
	a.idx.Sync(func(yield func(string, core.Snapshot) bool) {
		for _, m := range a.collectors {
			if m.state(now, a.lease, a.failAfter) == Failed {
				continue
			}
			for _, dm := range m.devices {
				if !yield(dm.key, dm.snap) {
					return
				}
			}
		}
	})
}

// cursor returns a view's cursor: the version, and the number of live
// (non-failed) collectors feeding the view — every one for the merged
// view (device ""), those mirroring the device otherwise. The count is
// what the version alone misses: a collector crossing FailAfter drops
// out of the merge without a mutation.
func (a *Aggregator) cursor(device string) (version uint64, live int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	for _, m := range a.collectors {
		if m.state(now, a.lease, a.failAfter) == Failed {
			continue
		}
		if device == "" || m.devices[device] != nil {
			live++
		}
	}
	return a.version, live
}

// Close stops the aggregator: syncs are refused and watch streams end.
// Mirrors remain readable (WriteTo still works) so a final state save
// can follow.
func (a *Aggregator) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	a.notify.Wake(ErrClosed)
}

// Collectors lists every known collector's status, sorted by ID.
func (a *Aggregator) Collectors() []CollectorStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	out := make([]CollectorStatus, 0, len(a.collectors))
	for id, m := range a.collectors {
		out = append(out, CollectorStatus{
			ID:          id,
			State:       m.state(now, a.lease, a.failAfter),
			LastSyncAge: now.Sub(m.lastSync),
			Devices:     len(m.devices),
			Syncs:       m.syncs,
			Rejects:     m.rejects,
			Bytes:       m.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MaxSyncAge reports the stalest last-sync age among non-failed
// collectors — the number an operator alerts on. Zero when no
// collector is known or all have failed.
func (a *Aggregator) MaxSyncAge() time.Duration {
	var max time.Duration
	for _, c := range a.Collectors() {
		if c.State != Failed && c.LastSyncAge > max {
			max = c.LastSyncAge
		}
	}
	return max
}

// Devices lists every device mirrored by a non-failed collector,
// sorted.
func (a *Aggregator) Devices() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	seen := make(map[string]struct{})
	for _, m := range a.collectors {
		if m.state(now, a.lease, a.failAfter) == Failed {
			continue
		}
		for id := range m.devices {
			seen[id] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// MergedSnapshot merges every live mirror into the fleet-wide synopsis
// at minSupport. The result is exactly core.MergeSnapshots over the
// collectors' exports: an aggregator that has converged answers
// byte-for-byte what a single process holding all devices would. The
// read sorts the incrementally kept union (readIndex); it is the one
// read that does, MergedState scans the union without sorting it.
func (a *Aggregator) MergedSnapshot(minSupport uint32) (snap core.Snapshot) {
	a.readIndex(func(idx *core.MergeIndex) {
		snap = idx.Snapshot().FilterSupport(minSupport)
	})
	return snap
}

// readIndex is the one way a merged read reaches the union: the index
// is synced to the live mirrors, then fn runs against it under idxMu
// alone.
func (a *Aggregator) readIndex(fn func(idx *core.MergeIndex)) {
	a.mu.Lock()
	a.idxMu.Lock()
	a.syncIndexLocked()
	a.mu.Unlock()
	defer a.idxMu.Unlock()
	fn(a.idx)
}

// mirrorKey names one (collector, device) source in the merge index.
// IDs are only length-bounded by the wire format (any byte may appear,
// including the separator), so the collector's length is prefixed to
// make the split point — and therefore the key — unambiguous.
func mirrorKey(collector, device string) string {
	return strconv.Itoa(len(collector)) + "\x00" + collector + device
}

// DeviceSnapshot returns one device's mirror at minSupport — the one
// live collector's as it stands in the normal case (mirrors are
// immutable sorted exports, so the cut is two binary searches and
// nothing is copied), their sum through a throwaway core.MergeIndex when
// several live collectors mirror the device. ok is false when none does.
func (a *Aggregator) DeviceSnapshot(device string, minSupport uint32) (core.Snapshot, bool) {
	a.mu.Lock()
	now := a.now()
	var snaps []core.Snapshot
	for _, m := range a.collectors {
		if dm := m.devices[device]; dm != nil && m.state(now, a.lease, a.failAfter) != Failed {
			snaps = append(snaps, dm.snap)
		}
	}
	a.mu.Unlock()
	switch len(snaps) {
	case 0:
		return core.Snapshot{}, false
	case 1:
		return snaps[0].FilterSupport(minSupport), true
	}
	idx := core.NewMergeIndex()
	for i, s := range snaps {
		idx.Update(strconv.Itoa(i), s)
	}
	return idx.Snapshot().FilterSupport(minSupport), true
}

// TopRules is MergedState's rules alone: the limit highest-ranked
// fleet-wide rules (none when limit <= 0). It remains only because the
// repository benchmark's layer probe calls it.
func (a *Aggregator) TopRules(minSupport uint32, minConfidence float64, limit int) []core.Rule {
	return a.MergedState(minSupport, minConfidence, limit, core.WantRules).Rules
}

// MergedState is the bounded read of the merged mirror (core.State):
// one pass over the union, pairs and rules taken under one hold of the
// index lock, so they describe the same merge.
func (a *Aggregator) MergedState(minSupport uint32, minConfidence float64, top int, want core.Want) (st core.State) {
	a.readIndex(func(idx *core.MergeIndex) {
		st = idx.State(minSupport, minConfidence, top, want)
	})
	return st
}

// FleetStatus is the staleness block stamped into every read response:
// reads keep answering during partitions, and this is how the caller
// knows what it got.
type FleetStatus struct {
	// Status is "ok" (all collectors healthy), "degraded" (some
	// degraded or failed), "failed" (all failed), or "empty" (no
	// collector has ever synced).
	Status string `json:"status"`
	// MaxSyncAgeSeconds is the stalest non-failed collector's sync
	// age — the staleness bound on the data served.
	MaxSyncAgeSeconds float64           `json:"maxSyncAgeSeconds"`
	Collectors        []collectorStatus `json:"collectors"`
}

type collectorStatus struct {
	ID             string  `json:"id"`
	State          string  `json:"state"`
	LastSyncAgeSec float64 `json:"lastSyncAgeSeconds"`
	Devices        int     `json:"devices"`
	Syncs          uint64  `json:"syncs"`
	Rejects        uint64  `json:"rejects"`
}

// Status assembles the staleness block.
func (a *Aggregator) Status() FleetStatus {
	cs := a.Collectors()
	st := FleetStatus{Status: "empty", Collectors: make([]collectorStatus, 0, len(cs))}
	var maxAge time.Duration
	allFailed, anyUnwell := len(cs) > 0, false
	for _, c := range cs {
		if c.State != Failed {
			allFailed = false
			if c.LastSyncAge > maxAge {
				maxAge = c.LastSyncAge
			}
		}
		if c.State != Healthy {
			anyUnwell = true
		}
		st.Collectors = append(st.Collectors, collectorStatus{
			ID:             c.ID,
			State:          c.State.String(),
			LastSyncAgeSec: c.LastSyncAge.Seconds(),
			Devices:        c.Devices,
			Syncs:          c.Syncs,
			Rejects:        c.Rejects,
		})
	}
	switch {
	case len(cs) == 0:
		st.Status = "empty"
	case allFailed:
		st.Status = "failed"
	case anyUnwell:
		st.Status = "degraded"
	default:
		st.Status = "ok"
	}
	st.MaxSyncAgeSeconds = maxAge.Seconds()
	return st
}
