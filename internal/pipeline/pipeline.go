// Package pipeline wires the framework of the paper's Fig. 3 together:
// issue events flow from a replayed (or live) request stream into the
// real-time monitoring module, whose transactions feed the online
// analysis module, while completion latencies drive the dynamic
// transaction window. It also optionally stores the transactions, which
// is how the evaluation hands the *same* transaction stream to the
// offline FIM baselines.
package pipeline

import (
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/device"
	"daccor/internal/monitor"
	"daccor/internal/replay"
)

// Config assembles a pipeline.
type Config struct {
	Monitor  monitor.Config
	Analyzer core.Config
	// Restored, when non-nil, is a pre-built analyzer (typically from
	// core.LoadAnalyzer) used instead of constructing one from the
	// Analyzer config — a warm restart of the characterizer.
	Restored *core.Analyzer
	// KeepTransactions retains every emitted transaction for offline
	// analysis (at memory cost proportional to the trace).
	KeepTransactions bool
}

// Pipeline is a monitor + analyzer pair fed by issue and completion
// events. Not safe for concurrent use.
type Pipeline struct {
	mon      *monitor.Monitor
	analyzer *core.Analyzer

	keepTx       bool
	transactions []monitor.Transaction
}

// Validate reports whether the configuration can build a pipeline,
// composing the monitor and analyzer legs of the unified Config
// surface. Unlike monitor.Config.Validate, a nil Monitor.Window is
// accepted here because New substitutes the paper's dynamic window;
// the Analyzer config is skipped when a Restored analyzer supersedes
// it.
func (c Config) Validate() error {
	if c.Restored == nil {
		if err := c.Analyzer.Validate(); err != nil {
			return err
		}
	}
	mc := c.Monitor
	if mc.Window == nil {
		// Stand-in for the dynamic default New installs; only the
		// remaining monitor fields are validated.
		mc.Window = monitor.StaticWindow(1)
	}
	return mc.Validate()
}

// New builds a pipeline. If cfg.Monitor.Window is nil, the paper's
// dynamic 2×-average-latency window is used with a [50 µs, 100 ms]
// clamp (monitor.DefaultWindow).
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Monitor.Window == nil {
		cfg.Monitor.Window = monitor.DefaultWindow()
	}
	analyzer := cfg.Restored
	if analyzer == nil {
		var err error
		analyzer, err = core.NewAnalyzer(cfg.Analyzer)
		if err != nil {
			return nil, err
		}
	}
	p := &Pipeline{analyzer: analyzer, keepTx: cfg.KeepTransactions}
	mon, err := monitor.New(cfg.Monitor, func(tx monitor.Transaction) {
		if p.keepTx {
			p.transactions = append(p.transactions, tx)
		}
		p.analyzer.Process(tx.Extents)
	})
	if err != nil {
		return nil, err
	}
	p.mon = mon
	return p, nil
}

// HandleIssue feeds one block-layer issue event.
func (p *Pipeline) HandleIssue(ev blktrace.Event) error {
	return p.mon.HandleEvent(ev)
}

// HandleCompletion feeds one completion, driving the dynamic window.
func (p *Pipeline) HandleCompletion(c device.Completion) {
	p.mon.ObserveLatency(int64(c.Latency()))
}

// Flush closes the open transaction; call at end of stream.
func (p *Pipeline) Flush() { p.mon.Flush() }

// Analyzer exposes the online analysis module.
func (p *Pipeline) Analyzer() *core.Analyzer { return p.analyzer }

// Monitor exposes the monitoring module.
func (p *Pipeline) Monitor() *monitor.Monitor { return p.mon }

// WindowDuration reports the monitor's current transaction window;
// see monitor.Monitor.WindowDuration.
func (p *Pipeline) WindowDuration() time.Duration { return p.mon.WindowDuration() }

// Snapshot exports the synopsis at minSupport.
func (p *Pipeline) Snapshot(minSupport uint32) core.Snapshot {
	return p.analyzer.Snapshot(minSupport)
}

// Transactions returns the stored transactions (empty unless
// KeepTransactions was set).
func (p *Pipeline) Transactions() []monitor.Transaction { return p.transactions }

// ExtentSets converts stored transactions into the extent-set form the
// fim package consumes.
func ExtentSets(txs []monitor.Transaction) [][]blktrace.Extent {
	out := make([][]blktrace.Extent, len(txs))
	for i, tx := range txs {
		out[i] = tx.Extents
	}
	return out
}

// AnalyzeReplay replays a trace on a device with monitoring and online
// analysis attached live — the paper's evaluation setup — and returns
// the pipeline (for snapshots) plus the replay result.
func AnalyzeReplay(t *blktrace.Trace, d *device.Device, opts replay.Options, cfg Config) (*Pipeline, replay.Result, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, replay.Result{}, err
	}
	prevIssue := opts.OnIssue
	opts.OnIssue = func(ev blktrace.Event) {
		if prevIssue != nil {
			prevIssue(ev)
		}
		// The replayer guarantees valid, monotone re-timed events.
		_ = p.HandleIssue(ev)
	}
	prevComplete := opts.OnComplete
	opts.OnComplete = func(c device.Completion) {
		if prevComplete != nil {
			prevComplete(c)
		}
		p.HandleCompletion(c)
	}
	res, err := replay.Run(t, d, opts)
	if err != nil {
		return nil, replay.Result{}, err
	}
	p.Flush()
	return p, res, nil
}

// AnalyzeTrace runs a trace's events straight through the pipeline
// using the trace's own timestamps (no device in the loop). The monitor
// config must carry an explicit window policy, since without
// completions a dynamic window never adapts beyond its minimum.
func AnalyzeTrace(t *blktrace.Trace, cfg Config) (*Pipeline, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for _, ev := range t.Events {
		if err := p.HandleIssue(ev); err != nil {
			return nil, err
		}
	}
	p.Flush()
	return p, nil
}
