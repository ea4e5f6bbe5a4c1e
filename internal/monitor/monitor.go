package monitor

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"daccor/internal/blktrace"
)

// DefaultMaxRequests is the paper's transaction-size cap: "for our
// evaluation, we used a limit of eight I/O requests per transaction".
const DefaultMaxRequests = 8

// Transaction is a set of requests coincident in time. Extents holds
// the deduplicated extents in arrival order — the payload the online
// analysis module consumes — and Ops holds each extent's direction
// (the op of its first occurrence), so optimization modules can select
// correlated writes (§V.1 garbage collection) or correlated reads
// (§V.2 parallel placement). Requests counts raw events assigned to
// the transaction, including duplicates removed by deduplication.
//
// A sink borrows the transaction it is handed: the monitor reuses
// Extents' and Ops' backing arrays for the next transaction, so they
// are valid only for the length of the sink call. A sink that keeps a
// transaction keeps its Clone.
type Transaction struct {
	Start, End int64 // issue timestamps of first and last event, ns
	Extents    []blktrace.Extent
	Ops        []blktrace.Op
	Requests   int
}

// Clone returns a copy of tx that shares no memory with it: what a
// sink keeps of a transaction it was lent.
func (tx Transaction) Clone() Transaction {
	tx.Extents = slices.Clone(tx.Extents)
	tx.Ops = slices.Clone(tx.Ops)
	return tx
}

// ExtentsFor returns the transaction's extents issued with the given
// op, preserving arrival order.
func (tx Transaction) ExtentsFor(op blktrace.Op) []blktrace.Extent {
	var out []blktrace.Extent
	for i, e := range tx.Extents {
		if tx.Ops[i] == op {
			out = append(out, e)
		}
	}
	return out
}

// Config configures a Monitor.
type Config struct {
	// Window decides the transaction window; required.
	Window WindowPolicy
	// MaxRequests caps the number of requests per transaction; events
	// beyond the cap open a new transaction (the paper's stability
	// guard for the Θ(N²) analysis cost). 0 means DefaultMaxRequests.
	MaxRequests int
	// FilterPIDs, when non-empty, restricts monitoring to events from
	// these process IDs, mirroring the evaluation setup that filters
	// blktrace events to the workload's PIDs.
	FilterPIDs []uint32
	// KeepDuplicates disables in-transaction deduplication. The paper
	// dedups because repeated identical requests (seen in wdev) would
	// distort correlation frequencies; this switch exists for
	// measuring that effect.
	KeepDuplicates bool
}

// Stats counts the monitor's activity.
type Stats struct {
	Events       uint64 // events accepted (after PID filtering)
	Filtered     uint64 // events dropped by the PID filter
	Duplicates   uint64 // events removed by deduplication
	Transactions uint64 // transactions emitted
	CapSplits    uint64 // transactions closed by the size cap
	OutOfOrder   uint64 // events with timestamps before the open transaction's last event
}

// Monitor groups issue events into transactions and forwards them to a
// sink. It is a push-based state machine: feed events with
// HandleEvent, feed completion latencies with ObserveLatency (driving
// a dynamic window), and call Flush at end of stream.
//
// At steady state it allocates nothing: the open transaction's slices
// are reused from one transaction to the next, and deduplication scans
// them instead of keeping a set beside them.
type Monitor struct {
	cfg    Config
	sink   func(Transaction)
	filter []uint32 // FilterPIDs, sorted; nil when unfiltered

	open     Transaction
	lastTime int64

	stats Stats
}

// Validate reports whether the configuration can build a monitor: a
// window policy is required and MaxRequests must be non-negative
// (0 selects DefaultMaxRequests). It is the monitor leg of the unified
// Config/Validate surface shared with core.Config and pipeline.Config.
func (c Config) Validate() error {
	if c.Window == nil {
		return errors.New("monitor: Config.Window is required")
	}
	if c.MaxRequests < 0 {
		return fmt.Errorf("monitor: MaxRequests must be >= 1, or 0 for DefaultMaxRequests (got %d)", c.MaxRequests)
	}
	return nil
}

// New returns a Monitor forwarding completed transactions to sink.
// The sink borrows each transaction: its Extents and Ops are valid
// only during the call, and a sink that keeps one keeps tx.Clone().
func New(cfg Config, sink func(Transaction)) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRequests == 0 {
		cfg.MaxRequests = DefaultMaxRequests
	}
	if sink == nil {
		return nil, errors.New("monitor: sink is required")
	}
	m := &Monitor{cfg: cfg, sink: sink}
	if len(cfg.FilterPIDs) > 0 {
		m.filter = slices.Clone(cfg.FilterPIDs)
		slices.Sort(m.filter)
	}
	return m, nil
}

// HandleEvent assigns one issue event to the open transaction, closing
// it first if the event falls outside the transaction window (measured
// from the transaction's first event) or if the size cap is reached.
func (m *Monitor) HandleEvent(ev blktrace.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	if m.filter != nil {
		if _, ok := slices.BinarySearch(m.filter, ev.PID); !ok {
			m.stats.Filtered++
			return nil
		}
	}
	if ev.Time < m.lastTime {
		// blktrace streams can be mildly out of order across CPUs;
		// clamp rather than fail so a live monitor keeps running.
		m.stats.OutOfOrder++
		ev.Time = m.lastTime
	}
	m.lastTime = ev.Time

	if m.open.Requests > 0 {
		window := m.cfg.Window.Window()
		if ev.Time-m.open.Start > int64(window) {
			m.emit()
		} else if m.open.Requests >= m.cfg.MaxRequests {
			m.stats.CapSplits++
			m.emit()
		}
	}
	if m.open.Requests == 0 {
		m.open.Start = ev.Time
	}
	m.open.End = ev.Time
	m.open.Requests++
	m.stats.Events++

	// The open transaction's extents are exactly the ones seen since it
	// opened, so a scan of them is the dedup set. It is at most
	// MaxRequests long, which makes a transaction O(N²) to build: the
	// same order as the analyzer's pair touches.
	if !m.cfg.KeepDuplicates && slices.Contains(m.open.Extents, ev.Extent) {
		m.stats.Duplicates++
		return nil
	}
	m.open.Extents = append(m.open.Extents, ev.Extent)
	m.open.Ops = append(m.open.Ops, ev.Op)
	return nil
}

// ObserveLatency feeds one completed request latency (in nanoseconds)
// to the window policy.
func (m *Monitor) ObserveLatency(ns int64) {
	m.cfg.Window.ObserveLatency(time.Duration(ns))
}

// emit closes the open transaction and lends it to the sink, then
// keeps its slices' backing arrays for the next one.
func (m *Monitor) emit() {
	if m.open.Requests == 0 {
		return
	}
	m.sink(m.open)
	m.stats.Transactions++
	m.open = Transaction{Extents: m.open.Extents[:0], Ops: m.open.Ops[:0]}
}

// Flush closes and emits the open transaction, if any. Call it at end
// of stream.
func (m *Monitor) Flush() { m.emit() }

// Stats returns a copy of the monitor's counters.
func (m *Monitor) Stats() Stats { return m.stats }

// WindowDuration reports the window policy's current transaction
// window — the live value of the paper's dynamic 2×-average-latency
// window, surfaced as the rolling-window-size gauge in the
// observability layer.
func (m *Monitor) WindowDuration() time.Duration { return m.cfg.Window.Window() }

// Run drains a source through the monitor, flushing at EOF.
func (m *Monitor) Run(src blktrace.Source) error {
	for {
		ev, err := src.Next()
		if errors.Is(err, io.EOF) {
			m.Flush()
			return nil
		}
		if err != nil {
			return err
		}
		if err := m.HandleEvent(ev); err != nil {
			return err
		}
	}
}

// Collect is a convenience that runs a whole trace through a monitor
// with the given config and returns the transactions. It is how the
// offline FIM baselines obtain the same transactions the online
// analysis sees.
func Collect(t *blktrace.Trace, cfg Config) ([]Transaction, error) {
	var out []Transaction
	m, err := New(cfg, func(tx Transaction) { out = append(out, tx.Clone()) })
	if err != nil {
		return nil, err
	}
	if err := m.Run(t.Source()); err != nil {
		return nil, err
	}
	return out, nil
}
