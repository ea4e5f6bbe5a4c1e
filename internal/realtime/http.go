// Package realtime serves a live characterization engine over HTTP:
// block-layer events stream in on the ingest route while consumers ask
// for snapshots, rules, or statistics — or hold a watch open — at any
// moment. This is the deployment shape the paper sketches:
// characterization running alongside the workload, feeding optimization
// modules continuously. The engine (internal/engine) owns the workers,
// queues, and backpressure; this package is its ops surface
// (NewEngineHandler) and its adapter to the read routes internal/api
// shares with the aggregator (engineSource).
package realtime

import (
	"errors"
	"net/http"
	"time"

	"daccor/internal/api"
	"daccor/internal/engine"
)

// The read-route defaults and the watch delivery counter, under the
// names consumers of this package already use; the definitions (and
// the full parameter grammar) live in internal/api.
const (
	DefaultSupport    = api.DefaultSupport
	DefaultConfidence = api.DefaultConfidence
	MetricWatchEvents = api.MetricWatchEvents
)

// MaxIngestBatch bounds the events accepted by one POST to the ingest
// route, and maxIngestBody bounds the request body read to decode
// them, so a single request can neither monopolize a device queue nor
// balloon the decoder.
const (
	MaxIngestBatch = 10_000
	maxIngestBody  = 8 << 20
)

// The collector's own machine-readable error codes, beside the shared
// api.ErrCodeBadRequest / ErrCodeUnknownDevice / ErrCodeInternal.
const (
	ErrCodeStopped           = "stopped"            // engine stopped, no live state (HTTP 503)
	ErrCodeDeviceUnavailable = "device_unavailable" // device worker failed permanently (HTTP 503)
)

// engineError maps engine sentinel errors onto the envelope's
// machine-readable codes.
func engineError(err error) *api.Error {
	switch {
	case errors.Is(err, engine.ErrUnknownDevice):
		return api.Errorf(http.StatusNotFound, api.ErrCodeUnknownDevice, "%v", err)
	case errors.Is(err, engine.ErrStopped):
		return api.Errorf(http.StatusServiceUnavailable, ErrCodeStopped, "%v", err)
	case errors.Is(err, engine.ErrDeviceUnavailable):
		// The device's worker failed permanently; the caller should
		// retry against a healthy device, not this one. Typed so clients
		// can tell "device is dead" from "service is restarting".
		return api.Errorf(http.StatusServiceUnavailable, ErrCodeDeviceUnavailable, "%v", err)
	default:
		return api.Errorf(http.StatusInternalServerError, api.ErrCodeInternal, "%v", err)
	}
}

// NewEngineHandler exposes a multi-device engine's live state over
// HTTP — the ops surface a self-optimizing storage service consumes.
//
// Versioned API (uniform {data, error} envelope, machine-readable
// error codes). The read surface — devices, per-device and fleet-wide
// snapshot / rules / watch, metrics — is internal/api's, served from
// the engine through engineSource: the same code, parameters, ETags,
// and watch wire forms an aggregator serves (route table at
// api.NewMux, watch protocol in api/watch.go). The collector adds the
// routes only it can answer:
//
//	GET /v1/stats                          per-device + total monitor/analyzer counters, drops, lag
//	GET /v1/healthz                        per-device supervision health (see below)
//	GET /v1/readyz                         readiness probe (see below)
//	POST /v1/devices/{id}/events           batch event ingest (JSON body, see below)
//	DELETE /v1/devices/{id}                unregister a device (drains, flushes, checkpoints)
//
// A watch's cursor is the synopsis epoch (a processed batch, a
// restart, a stop flush — the same epoch that keys the ETags). When
// the engine stops (or the device fails or is unregistered) watchers
// receive the terminal `event: end` with reason stopped or
// device_unavailable.
//
// The health routes are the load-balancer/orchestrator surface.
// /v1/healthz always carries per-device detail (state, panic/restart
// counters, checkpoint recency, drops, lag) and answers 200 while
// anything is servable — status "ok" when every device is healthy,
// "degraded" when some device is degraded or failed — and 503 with
// status "failed" only when every registered device has failed.
// /v1/readyz answers 200 {"ready": true} while the engine is serving
// and 503 once it is stopped (shutdown draining) or wholly failed, so
// traffic is steered away before the process exits. Neither route
// does a worker round trip: both stay fast while devices are
// restarting, failed, or backlogged.
//
// The ingest route accepts one JSON object, {"events": [{"time", "pid",
// "op", "block", "len"}, ...]} with op "read" or "write", at most
// MaxIngestBatch events per request, and submits the whole batch to the
// device under one queue lock acquisition (Engine.SubmitBatch). The
// body is decoded in one pass into pooled buffers (ingest.go, which
// also spells out the accepted grammar); anything after the object is
// rejected. A malformed or invalid event rejects the entire batch with
// bad_request, identifying the offending index; nothing is partially
// ingested. On success the response reports {"device", "accepted"}.
//
// Every route flows through one typed error path: errors are 400
// (bad_request), 404 (unknown_device), 503 (stopped,
// device_unavailable), or 500 (internal), always as {"data": null,
// "error": {"code", "message"}}.
//
// The deprecated pre-v1 unversioned aliases (/stats, /snapshot,
// /rules) have been removed; they now answer 404 like any unknown
// path. Use the /v1 successors.
func NewEngineHandler(e *engine.Engine) http.Handler {
	mux := api.NewMux(engineSource{e}, e.Metrics(), nil)

	mux.HandleFunc("GET /v1/stats", api.Handle(func(w http.ResponseWriter, r *http.Request) *api.Error {
		st, err := e.Stats()
		if err != nil {
			return engineError(err)
		}
		api.WriteData(w, statsBody(st))
		return nil
	}))

	mux.HandleFunc("POST /v1/devices/{id}/events", api.Handle(func(w http.ResponseWriter, r *http.Request) *api.Error {
		buf := getIngestBuffers()
		defer buf.release()
		evs, err := buf.decode(http.MaxBytesReader(w, r.Body, maxIngestBody))
		if err != nil {
			return api.BadRequest(err)
		}
		id := r.PathValue("id")
		if err := e.SubmitBatch(id, evs); err != nil {
			return engineError(err)
		}
		api.WriteData(w, map[string]any{"device": id, "accepted": len(evs)})
		return nil
	}))

	mux.HandleFunc("DELETE /v1/devices/{id}", api.Handle(func(w http.ResponseWriter, r *http.Request) *api.Error {
		id := r.PathValue("id")
		if err := e.Unregister(id); err != nil {
			return engineError(err)
		}
		api.WriteData(w, map[string]any{"device": id, "unregistered": true})
		return nil
	}))

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		body, allFailed := healthBody(e)
		status := http.StatusOK
		if allFailed {
			status = http.StatusServiceUnavailable
		}
		api.WriteDataStatus(w, status, body)
	})

	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		body, allFailed := healthBody(e)
		ready := !e.Stopped() && !allFailed
		body["ready"] = ready
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		api.WriteDataStatus(w, status, body)
	})

	return api.WithMetrics(e.Metrics(), mux)
}

// healthBody builds the shared healthz/readyz payload from the
// engine's supervision view (no worker round trips), and reports
// whether every registered device has failed.
func healthBody(e *engine.Engine) (map[string]any, bool) {
	hs := e.Health()
	devices := make([]map[string]any, 0, len(hs))
	allFailed := len(hs) > 0
	anyUnwell := false
	for _, h := range hs {
		if h.State != engine.Failed {
			allFailed = false
		}
		if h.State != engine.Healthy {
			anyUnwell = true
		}
		d := map[string]any{
			"id":                  h.Device,
			"state":               h.State.String(),
			"panics":              h.Panics,
			"restarts":            h.Restarts,
			"consecutiveRestarts": h.ConsecutiveRestarts,
			"checkpointSeq":       h.CheckpointSeq,
			"dropped":             h.Dropped,
			"lag":                 h.Lag,
		}
		if !h.LastRestart.IsZero() {
			d["lastRestartUnixMs"] = h.LastRestart.UnixMilli()
		}
		if !h.LastCheckpoint.IsZero() {
			d["checkpointAgeSeconds"] = time.Since(h.LastCheckpoint).Seconds()
		}
		devices = append(devices, d)
	}
	status := "ok"
	switch {
	case allFailed:
		status = "failed"
	case anyUnwell:
		status = "degraded"
	}
	return map[string]any{"status": status, "devices": devices}, allFailed
}

func statsBody(st engine.Stats) map[string]any {
	devices := make([]map[string]any, 0, len(st.Devices))
	for _, d := range st.Devices {
		devices = append(devices, map[string]any{
			"id":       d.Device,
			"monitor":  d.Monitor,
			"analyzer": d.Analyzer,
			"windowNs": d.Window.Nanoseconds(),
			"dropped":  d.Dropped,
			"lag":      d.Lag,
		})
	}
	return map[string]any{
		"devices": devices,
		"totals": map[string]any{
			"monitor":  st.TotalMonitor(),
			"analyzer": st.TotalAnalyzer(),
			"dropped":  st.TotalDropped(),
		},
	}
}
