package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
	"daccor/internal/pipeline"
	"daccor/internal/realtime"
	"daccor/pkg/client"
)

const (
	// ladderLaps: every rung takes this many laps of the 200 k trace. The
	// first fills the tables and is not timed; each further lap is timed
	// on its own and the rung reports the quiet quartile of them, so all
	// rungs are compared on full tables and on their undisturbed laps.
	ladderLaps = 5
	// httpLadderLaps: the HTTP rungs cost 2-4x more per event and their
	// request bodies are encoded beforehand, in memory: one warm-up lap
	// (through SubmitBatch) and two timed ones.
	httpLadderLaps = 3
	// ladderSlack: a rung may read this much cheaper than the one below
	// it before the ladder is flagged; B and C do the same work and
	// differ only by noise.
	ladderSlack = 0.10
)

// rung is one slice of the ingest path, pushed single-threaded from
// the harness: ns per event through everything up to and including it.
type rung struct {
	Name   string  `json:"name"`
	What   string  `json:"what"`
	Events int     `json:"events"`
	NsPerE float64 `json:"ns_per_event"`
	// SelfNs is this rung minus the one it is stacked on (Base): the
	// cost of the layer it adds.
	Base   string  `json:"base,omitempty"`
	SelfNs float64 `json:"self_ns_per_event,omitempty"`
}

// ladder holds the rungs plus the by-products the per-layer ledger
// reads off them.
type ladder struct {
	Rungs    []rung `json:"rungs"`
	Monotone bool   `json:"monotone"`

	eventsPerTx float64
	stateBytes  int
	full        *core.Analyzer // rung C's analyzer, tables at capacity
}

func (l *ladder) ns(name string) float64 {
	for _, r := range l.Rungs {
		if r.Name == name {
			return r.NsPerE
		}
	}
	return 0
}

func (l *ladder) add(name, base, what string, events int, nsPerEvent float64) {
	r := rung{Name: name, What: what, Events: events, NsPerE: nsPerEvent, Base: base}
	if base != "" {
		r.SelfNs = r.NsPerE - l.ns(base)
	}
	l.Rungs = append(l.Rungs, r)
}

// A path turns one lap of events into the work a rung times. What it
// does before it returns (encoding request bodies, say) is not timed;
// the returned function is, and returns once the events are handed on.
type path func(lap []blktrace.Event) (timed func() error, err error)

// direct is the path of a plain per-lap function.
func direct(push func(lap []blktrace.Event) error) path {
	return func(lap []blktrace.Event) (func() error, error) {
		return func() error { return push(lap) }, nil
	}
}

// timeLaps replays the trace lap after lap, as the endless stream does,
// and returns the quiet quartile of the timed laps' cost in ns per
// event. Lap 0 goes to warm, untimed; every later lap through p.
func timeLaps(trace []blktrace.Event, laps int, warm func(lap []blktrace.Event) error, p path) (float64, error) {
	src := &stream{events: trace, lapSpan: trace[len(trace)-1].Time + lapGap}
	lap := make([]blktrace.Event, len(trace))
	if err := warm(src.next(lap)); err != nil {
		return 0, err
	}
	var perEvent []float64
	for i := 1; i < laps; i++ {
		timed, err := p(src.next(lap))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := timed(); err != nil {
			return 0, err
		}
		perEvent = append(perEvent, float64(time.Since(start))/float64(len(lap)))
	}
	return quiet(perEvent, "lower"), nil
}

// engineRung times a one-device engine fed through the path open
// returns for it (closePath undoes open). The warm-up lap always goes
// through SubmitBatch, and every lap, timed or not, ends with the
// in-band barrier and the check that the engine analyzed all of it.
func engineRung(trace []blktrace.Event, laps, parts, reorder int, open func(*engine.Engine) (p path, closePath func(), err error)) (float64, error) {
	eng, err := engine.New(append(engineOptions(tableCapacity, parts, engine.Block, reorder), engine.WithDevices("dev"))...)
	if err != nil {
		return 0, err
	}
	defer eng.Stop()
	dev, err := eng.Device("dev")
	if err != nil {
		return 0, err
	}
	p, closePath, err := open(eng)
	if err != nil {
		return 0, err
	}
	defer closePath()
	pushed := uint64(0)
	barrier := func(n int) error {
		pushed += uint64(n)
		st, err := eng.DeviceStatsFor("dev")
		if err == nil && st.Monitor.Events != pushed {
			err = fmt.Errorf("ladder: engine analyzed %d of %d events", st.Monitor.Events, pushed)
		}
		return err
	}
	warm := func(lap []blktrace.Event) error {
		if err := submitBatches(dev, lap); err != nil {
			return err
		}
		return barrier(len(lap))
	}
	return timeLaps(trace, laps, warm, func(lap []blktrace.Event) (func() error, error) {
		timed, err := p(lap)
		return func() error {
			if err := timed(); err != nil {
				return err
			}
			return barrier(len(lap))
		}, err
	})
}

func submitBatches(dev *engine.Device, lap []blktrace.Event) error {
	for i := 0; i < len(lap); i += ingestBatch {
		if err := dev.SubmitBatch(lap[i:min(i+ingestBatch, len(lap))]); err != nil {
			return err
		}
	}
	return nil
}

// viaSubmitBatch is rungs D: ingestBatch-sized batches, in process.
func viaSubmitBatch(eng *engine.Engine) (path, func(), error) {
	dev, err := eng.Device("dev")
	return direct(func(lap []blktrace.Event) error { return submitBatches(dev, lap) }), func() {}, err
}

// viaHandler is rung E: the ingest route's handler called in process on
// request bodies encoded before the clock starts (encoding is the
// client's work), so the rung adds JSON decoding and validation to D1
// and nothing else.
func viaHandler(eng *engine.Engine) (path, func(), error) {
	type wire struct {
		Time  int64  `json:"time"`
		PID   uint32 `json:"pid"`
		Op    string `json:"op"`
		Block uint64 `json:"block"`
		Len   uint32 `json:"len"`
	}
	h := realtime.NewEngineHandler(eng)
	return func(lap []blktrace.Event) (func() error, error) {
		var bodies [][]byte
		for i := 0; i < len(lap); i += postBatch {
			batch := lap[i:min(i+postBatch, len(lap))]
			ws := make([]wire, len(batch))
			for j, ev := range batch {
				op := "read"
				if ev.Op == blktrace.OpWrite {
					op = "write"
				}
				ws[j] = wire{ev.Time, ev.PID, op, ev.Extent.Block, ev.Extent.Len}
			}
			b, err := json.Marshal(map[string]any{"events": ws})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		return func() error {
			for _, b := range bodies {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/devices/dev/events", bytes.NewReader(b)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("ladder: POST handler answered %d", rec.Code)
				}
			}
			return nil
		}, nil
	}, func() {}, nil
}

// viaClient is rung F: pkg/client over a loopback listener, closed
// loop on one connection — E plus client-side encoding and HTTP.
func viaClient(eng *engine.Engine) (path, func(), error) {
	srv, err := serveLoopback(realtime.NewEngineHandler(eng))
	if err != nil {
		return nil, nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	cl := client.New(srv.url, client.WithHTTPClient(&http.Client{Transport: tr}))
	push := func(lap []blktrace.Event) error {
		for i := 0; i < len(lap); i += postBatch {
			if _, err := cl.SubmitEvents(context.Background(), "dev", lap[i:min(i+postBatch, len(lap))]); err != nil {
				return err
			}
		}
		return nil
	}
	return direct(push), func() {
		tr.CloseIdleConnections()
		srv.close()
	}, nil
}

// runLadder pushes the same stream through successively thicker
// slices of the ingest path. A rung's cost minus the cost of the rung
// it stands on is the self cost of the layer it adds.
func runLadder(trace []blktrace.Event) (*ladder, error) {
	l := &ladder{}
	cfg := pipelineConfig(tableCapacity)
	timedEvents := (ladderLaps - 1) * len(trace)

	// monitorRung feeds the stream to a bare monitor with the given sink.
	monitorRung := func(sink func(monitor.Transaction)) (float64, error) {
		mon, err := monitor.New(cfg.Monitor, sink)
		if err != nil {
			return 0, err
		}
		push := func(lap []blktrace.Event) error {
			for _, ev := range lap {
				if err := mon.HandleEvent(ev); err != nil {
					return err
				}
			}
			return nil
		}
		return timeLaps(trace, ladderLaps, push, direct(push))
	}

	// A: the monitor alone, transactions counted and discarded.
	txs := 0
	ns, err := monitorRung(func(monitor.Transaction) { txs++ })
	if err != nil {
		return nil, err
	}
	l.add("A", "", "monitor.HandleEvent, null sink", timedEvents, ns)
	l.eventsPerTx = float64(ladderLaps*len(trace)) / float64(max(txs, 1))

	// B: A plus the analyzer on every transaction.
	an, err := core.NewAnalyzer(cfg.Analyzer)
	if err != nil {
		return nil, err
	}
	if ns, err = monitorRung(func(tx monitor.Transaction) { an.Process(tx.Extents) }); err != nil {
		return nil, err
	}
	l.add("B", "A", "A + core.Analyzer.Process", timedEvents, ns)
	l.stateBytes = an.MemoryBytes()

	// C: the single-threaded pipeline, the baseline for the same job.
	pipe, err := pipeline.New(cfg)
	if err != nil {
		return nil, err
	}
	push := func(lap []blktrace.Event) error { return feed(pipe, lap) }
	if ns, err = timeLaps(trace, ladderLaps, push, direct(push)); err != nil {
		return nil, err
	}
	l.add("C", "B", "pipeline.HandleIssue (single-threaded baseline)", timedEvents, ns)
	l.full = pipe.Analyzer()

	for _, r := range []struct {
		name, base, what     string
		laps, parts, reorder int
		open                 func(*engine.Engine) (path, func(), error)
	}{
		{"D", "C", "Engine.SubmitBatch + barrier, reorder buffer off", ladderLaps, 1, 0, viaSubmitBatch},
		{"D1", "D", "D with the default reorder buffer", ladderLaps, 1, engine.DefaultReorderBuffer, viaSubmitBatch},
		{"D2", "D1", "D1 with 2 partitions", ladderLaps, 2, engine.DefaultReorderBuffer, viaSubmitBatch},
		{"E", "D1", "POST handler in process (JSON decode + D1)", httpLadderLaps, 1, engine.DefaultReorderBuffer, viaHandler},
		{"F", "E", "pkg/client.SubmitEvents over loopback", httpLadderLaps, 1, engine.DefaultReorderBuffer, viaClient},
	} {
		ns, err := engineRung(trace, r.laps, r.parts, r.reorder, r.open)
		if err != nil {
			return nil, err
		}
		l.add(r.name, r.base, r.what, (r.laps-1)*len(trace), ns)
	}

	// Additivity: each rung of A..D1 contains the one before it, so it
	// cannot be cheaper beyond noise.
	l.Monotone = true
	for _, pair := range [][2]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "D1"}} {
		if l.ns(pair[1]) < l.ns(pair[0])*(1-ladderSlack) {
			l.Monotone = false
		}
	}
	return l, nil
}
