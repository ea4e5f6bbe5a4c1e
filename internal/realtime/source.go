package realtime

import (
	"context"
	"errors"
	"time"

	"daccor/internal/api"
	"daccor/internal/core"
	"daccor/internal/engine"
)

// engineSource adapts an engine to api.Source. A device view's cursor
// is the device's synopsis epoch ("17" on the wire); the merged view's
// is the engine's merged counter and device count ("103.2") — any
// device processing a batch, restarting, registering, unregistering,
// failing or flushing on stop changes it.
type engineSource struct {
	e *engine.Engine
}

// typed maps an engine failure onto the envelope's typed error. Context
// errors pass through untouched: the watch loop tells a keepalive
// timeout and a vanished client from a terminal source by them.
func typed(err error) error {
	if err == nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return engineError(err)
}

func (s engineSource) Devices() []string { return s.e.Devices() }

func (s engineSource) DeviceRows() ([]map[string]any, error) {
	st, err := s.e.Stats()
	if err != nil {
		return nil, typed(err)
	}
	rows := make([]map[string]any, 0, len(st.Devices))
	for _, d := range st.Devices {
		rows = append(rows, map[string]any{
			"id":      d.Device,
			"events":  d.Monitor.Events,
			"dropped": d.Dropped,
			"lag":     d.Lag,
		})
	}
	return rows, nil
}

func (s engineSource) Cursor(device string) (api.Cursor, error) {
	if device == "" {
		sum, n := s.e.MergedEpoch()
		return api.Cursor{Epoch: sum, N: n}, nil
	}
	epoch, err := s.e.Epoch(device)
	return api.Cursor{Epoch: epoch}, typed(err)
}

// State reads a device view from one capture and the merged view from
// one refresh of the merge index; each returns the epoch it read first.
func (s engineSource) State(device string, support uint32, conf float64, top int, want core.Want) (api.State, error) {
	if device == "" {
		st, sum, n, err := s.e.MergedState(support, conf, top, want)
		return api.State{Cursor: api.Cursor{Epoch: sum, N: n}, State: st}, typed(err)
	}
	st, epoch, err := s.e.State(device, support, conf, top, want)
	return api.State{Cursor: api.Cursor{Epoch: epoch}, State: st}, typed(err)
}

// Wait blocks on the engine's epoch notification; see Engine.WaitEpoch
// and Engine.WaitMergedEpoch for the terminal and context semantics.
func (s engineSource) Wait(ctx context.Context, device string, since api.Cursor) (time.Time, error) {
	if device == "" {
		if _, _, err := s.e.WaitMergedEpoch(ctx, since.Epoch, since.N); err != nil {
			return time.Time{}, typed(err)
		}
		return s.e.MergedEpochAdvanceTime(), nil
	}
	if _, err := s.e.WaitEpoch(ctx, device, since.Epoch); err != nil {
		return time.Time{}, typed(err)
	}
	// A device unregistered since the wake has no advance time to give;
	// the read that follows reports it gone.
	at, _ := s.e.EpochAdvanceTime(device)
	return at, nil
}

// EndReason mirrors the error codes of the query routes, except that a
// device unregistered under its watcher reads as stopped, not unknown:
// the watcher knew it.
func (s engineSource) EndReason(err error) string {
	if api.AsError(err).Code == ErrCodeDeviceUnavailable {
		return ErrCodeDeviceUnavailable
	}
	return ErrCodeStopped
}
