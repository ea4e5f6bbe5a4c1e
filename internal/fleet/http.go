package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"daccor/internal/api"
	"daccor/internal/core"
)

// MaxSyncBody bounds one POST /v1/sync body; a collector packs a round
// into as many frames within it as it needs.
const MaxSyncBody = 64 << 20

// syncBodyLimit is the bound the handler enforces and SyncNow packs
// under; tests lower it.
var syncBodyLimit = MaxSyncBody

// The aggregator's own machine-readable error codes, beside the shared
// api.ErrCodeBadRequest / ErrCodeUnknownDevice / ErrCodeInternal.
const (
	ErrCodeBadFrame = "bad_frame" // undecodable sync frame (HTTP 400)
	ErrCodeClosed   = "closed"    // aggregator closed (HTTP 503)
)

// NewHandler exposes an aggregator over HTTP. The read surface —
// devices, per-device and fleet-wide snapshot / rules / watch, metrics
// — is internal/api's, served from the mirrors through
// aggregatorSource: the same routes, parameters, ETags, and watch wire
// forms a collector serves (route table at api.NewMux), so one client
// reads either daemon. Every object-bodied read and watch delivery
// additionally carries the staleness block as data.fleet: during a
// partition the aggregator keeps answering 200s from its mirrors, and
// data.fleet is how the caller learns how stale they are. The
// aggregator adds the routes only it can answer:
//
//	POST /v1/sync                    collector sync frames (DFLT binary)
//	GET  /v1/collectors              per-collector sync state
//	GET  /v1/healthz                 fleet status probe (always 200; body carries degraded/failed)
//	GET  /v1/readyz                  503 only once the aggregator is closed
func NewHandler(a *Aggregator) http.Handler {
	stamp := func(body map[string]any) { body["fleet"] = a.Status() }
	mux := api.NewMux(aggregatorSource{a}, a.Metrics(), stamp)

	mux.HandleFunc("POST /v1/sync", api.Handle(func(w http.ResponseWriter, r *http.Request) *api.Error {
		body, err := io.ReadAll(io.LimitReader(r.Body, int64(syncBodyLimit)+1))
		if err != nil {
			return api.Errorf(http.StatusBadRequest, api.ErrCodeBadRequest, "read body: %v", err)
		}
		if len(body) > syncBodyLimit {
			return api.Errorf(http.StatusRequestEntityTooLarge, api.ErrCodeBadRequest,
				"sync body exceeds %d bytes", syncBodyLimit)
		}
		f, err := DecodeFrame(bytes.NewReader(body))
		if err != nil {
			return api.Errorf(http.StatusBadRequest, ErrCodeBadFrame, "%v", err)
		}
		res, err := a.Apply(f, len(body))
		if err != nil {
			return api.AsError(typed(err))
		}
		api.WriteData(w, res)
		return nil
	}))

	mux.HandleFunc("GET /v1/collectors", func(w http.ResponseWriter, r *http.Request) {
		api.WriteData(w, map[string]any{"fleet": a.Status()})
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Always 200: a degraded fleet is the aggregator doing its job
		// (serving through a partition), not the aggregator failing.
		// The body says which collectors are behind.
		api.WriteData(w, map[string]any{"fleet": a.Status()})
	})

	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		a.mu.Lock()
		closed := a.closed
		a.mu.Unlock()
		status := http.StatusOK
		if closed {
			status = http.StatusServiceUnavailable
		}
		api.WriteDataStatus(w, status, map[string]any{"ready": !closed, "fleet": a.Status()})
	})

	return api.WithMetrics(a.Metrics(), mux)
}

// aggregatorSource adapts an aggregator to api.Source. Every view's
// cursor is the mirror version paired with the number of live
// collectors feeding the view ("41.3" on the wire): a collector
// crossing FailAfter changes what is served without a version bump,
// and the count is what moves the cursor — and so invalidates ETags
// and wakes watchers at their next keepalive — when it does.
type aggregatorSource struct {
	a *Aggregator
}

// typed maps ErrClosed onto the envelope's typed error; nil and context
// errors pass through.
func typed(err error) error {
	if errors.Is(err, ErrClosed) {
		return api.Errorf(http.StatusServiceUnavailable, ErrCodeClosed, "%v", err)
	}
	return err
}

func unknownDevice(device string) error {
	return api.Errorf(http.StatusNotFound, api.ErrCodeUnknownDevice, "no live mirror for device %q", device)
}

func (s aggregatorSource) Devices() []string { return s.a.Devices() }

func (s aggregatorSource) DeviceRows() ([]map[string]any, error) {
	ids := s.a.Devices()
	rows := make([]map[string]any, len(ids))
	for i, id := range ids {
		rows[i] = map[string]any{"id": id}
	}
	return rows, nil
}

func (s aggregatorSource) Cursor(device string) (api.Cursor, error) {
	version, live := s.a.cursor(device)
	if device != "" && live == 0 {
		return api.Cursor{}, unknownDevice(device)
	}
	return api.Cursor{Epoch: version, N: live}, nil
}

// State reads a device view from one merge of the device's mirrors —
// the full export, because rules need every antecedent's item count —
// and the merged view from the merge index under one hold of its lock.
func (s aggregatorSource) State(device string, support uint32, conf float64, top int, want core.Want) (api.State, error) {
	cur, err := s.Cursor(device)
	if err != nil {
		return api.State{}, err
	}
	if device == "" {
		return api.State{Cursor: cur, State: s.a.MergedState(support, conf, top, want)}, nil
	}
	snap, ok := s.a.DeviceSnapshot(device, 0)
	if !ok {
		return api.State{}, unknownDevice(device)
	}
	return api.State{Cursor: cur, State: snap.State(support, conf, top, want)}, nil
}

// Wait ends with ErrClosed once the aggregator closes. A device view
// that loses its last live mirror has moved too: its watcher learns the
// device is gone from the read that follows.
func (s aggregatorSource) Wait(ctx context.Context, device string, since api.Cursor) (time.Time, error) {
	err := s.a.notify.Wait(ctx, func() bool {
		version, live := s.a.cursor(device)
		return version != since.Epoch || live != since.N
	})
	if err != nil {
		return time.Time{}, typed(err)
	}
	return s.a.notify.LastAdvance(), nil
}

// EndReason is the error's code: closed, or unknown_device when the
// watched device lost its last live mirror.
func (s aggregatorSource) EndReason(err error) string { return api.AsError(err).Code }
