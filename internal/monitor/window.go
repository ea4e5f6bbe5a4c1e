// Package monitor implements the paper's real-time monitoring module:
// it consumes block-layer issue events and groups them into
// transactions — sets of requests that occur within a brief transaction
// window — applying the paper's transaction-size cap and in-transaction
// deduplication before handing them to the online analysis module.
package monitor

import (
	"fmt"
	"time"
)

// A WindowPolicy decides the current transaction window duration. The
// monitor consults it when deciding whether an event still belongs to
// the open transaction, and feeds it observed request latencies so
// dynamic policies can adapt.
type WindowPolicy interface {
	// Window returns the current transaction window.
	Window() time.Duration
	// ObserveLatency feeds one completed request's latency.
	ObserveLatency(time.Duration)
}

// StaticWindow is a fixed transaction window duration; it ignores
// latency observations. The paper discusses this as the simple
// alternative that needs manual retuning per device and workload.
type StaticWindow time.Duration

// Window implements WindowPolicy.
func (w StaticWindow) Window() time.Duration { return time.Duration(w) }

// ObserveLatency implements WindowPolicy (no-op).
func (StaticWindow) ObserveLatency(time.Duration) {}

// DynamicWindow sizes the window as Multiplier × (exponentially
// weighted moving average of request latency), clamped to [Min, Max].
// The paper uses double the average I/O latency, noting the Linux
// kernel's hybrid-polling machinery maintains the same statistic.
type DynamicWindow struct {
	// Multiplier scales the average latency; the paper uses 2.
	Multiplier float64
	// Alpha is the EWMA weight of a new observation in (0, 1].
	Alpha float64
	// Min and Max clamp the window. Min also serves as the window
	// before any latency has been observed.
	Min, Max time.Duration

	avg float64 // EWMA of latency in nanoseconds; 0 until first sample
}

// Defaults for NewDynamicWindow.
const (
	DefaultMultiplier = 2.0
	DefaultAlpha      = 0.125 // TCP SRTT-style smoothing
)

// NewDynamicWindow returns the paper's dynamic policy: 2× average
// latency, smoothed, clamped to [min, max].
func NewDynamicWindow(min, max time.Duration) (*DynamicWindow, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("monitor: invalid window clamp [%v, %v]", min, max)
	}
	return &DynamicWindow{
		Multiplier: DefaultMultiplier,
		Alpha:      DefaultAlpha,
		Min:        min,
		Max:        max,
	}, nil
}

// DefaultWindow returns the policy a deployment gets when its
// configuration names none: the paper's dynamic window clamped to
// [50 µs, 100 ms]. The policy is stateful, so every monitor needs its
// own.
func DefaultWindow() *DynamicWindow {
	w, _ := NewDynamicWindow(50*time.Microsecond, 100*time.Millisecond) // the clamp is valid
	return w
}

// ObserveLatency implements WindowPolicy.
func (w *DynamicWindow) ObserveLatency(d time.Duration) {
	if d <= 0 {
		return
	}
	if w.avg == 0 {
		w.avg = float64(d)
		return
	}
	w.avg += w.Alpha * (float64(d) - w.avg)
}

// Window implements WindowPolicy.
func (w *DynamicWindow) Window() time.Duration {
	if w.avg == 0 {
		return w.Min
	}
	win := time.Duration(w.Multiplier * w.avg)
	if win < w.Min {
		return w.Min
	}
	if win > w.Max {
		return w.Max
	}
	return win
}

// AverageLatency returns the current EWMA estimate (0 before the first
// sample).
func (w *DynamicWindow) AverageLatency() time.Duration {
	return time.Duration(w.avg)
}
