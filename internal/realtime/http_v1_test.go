package realtime

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"daccor/internal/api"
	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
)

// servedEngine starts a two-device engine, feeds each device the same
// correlated pair eight times, waits for ingestion, and serves the v1
// API over httptest.
func servedEngine(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	e, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 4096, PairCapacity: 4096}),
		engine.WithDevices("vol0", "vol1"),
		engine.WithBackpressure(engine.Block),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := blktrace.Extent{Block: 10, Len: 1}
	b := blktrace.Extent{Block: 20, Len: 1}
	for _, id := range []string{"vol0", "vol1"} {
		for i := 0; i < 8; i++ {
			base := int64(i) * int64(time.Second)
			must(t, e.Submit(id, blktrace.Event{Time: base, Op: blktrace.OpRead, Extent: a}))
			must(t, e.Submit(id, blktrace.Event{Time: base + 1000, Op: blktrace.OpRead, Extent: b}))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := e.Stats()
		must(t, err)
		if st.TotalMonitor().Events >= 32 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ingestion timeout")
		}
		time.Sleep(time.Millisecond)
	}
	srv := httptest.NewServer(NewEngineHandler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

// getEnvelope fetches a v1 route and decodes the {data, error}
// envelope, verifying its invariant: exactly one of data and error is
// set.
func getEnvelope(t *testing.T, url string, data any) (int, *struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	if resp.StatusCode == http.StatusOK {
		if env.Error != nil {
			t.Errorf("%s: 200 with error %+v", url, env.Error)
		}
		if string(env.Data) == "null" {
			t.Errorf("%s: 200 with null data", url)
		}
		if data != nil {
			if err := json.Unmarshal(env.Data, data); err != nil {
				t.Fatalf("unmarshal %s data: %v", url, err)
			}
		}
	} else {
		if env.Error == nil {
			t.Errorf("%s: status %d with null error", url, resp.StatusCode)
		}
		if string(env.Data) != "null" {
			t.Errorf("%s: status %d with non-null data %s", url, resp.StatusCode, env.Data)
		}
	}
	return resp.StatusCode, env.Error
}

func TestV1Stats(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	var body struct {
		Devices []struct {
			ID      string `json:"id"`
			Monitor struct {
				Events uint64
			} `json:"monitor"`
			Dropped uint64 `json:"dropped"`
			Lag     int    `json:"lag"`
		} `json:"devices"`
		Totals struct {
			Monitor struct {
				Events uint64
			} `json:"monitor"`
			Dropped uint64 `json:"dropped"`
		} `json:"totals"`
	}
	code, _ := getEnvelope(t, srv.URL+"/v1/stats", &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(body.Devices) != 2 {
		t.Fatalf("devices = %+v, want 2", body.Devices)
	}
	for _, d := range body.Devices {
		if d.Monitor.Events != 16 {
			t.Errorf("device %s events = %d, want 16", d.ID, d.Monitor.Events)
		}
		if d.Dropped != 0 || d.Lag != 0 {
			t.Errorf("device %s dropped/lag = %d/%d, want 0/0", d.ID, d.Dropped, d.Lag)
		}
	}
	if body.Totals.Monitor.Events != 32 {
		t.Errorf("total events = %d, want 32", body.Totals.Monitor.Events)
	}
}

func TestV1Devices(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	var body []struct {
		ID     string `json:"id"`
		Events uint64 `json:"events"`
	}
	code, _ := getEnvelope(t, srv.URL+"/v1/devices", &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(body) != 2 || body[0].ID != "vol0" || body[1].ID != "vol1" {
		t.Fatalf("devices = %+v", body)
	}
}

func TestV1DeviceSnapshot(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	var body struct {
		Device     string `json:"device"`
		TotalPairs int    `json:"totalPairs"`
		Pairs      []struct {
			Count uint32
		} `json:"pairs"`
	}
	code, _ := getEnvelope(t, srv.URL+"/v1/devices/vol0/snapshot?support=3&top=10", &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.Device != "vol0" || body.TotalPairs != 1 || len(body.Pairs) != 1 {
		t.Fatalf("body = %+v", body)
	}
	if body.Pairs[0].Count < 7 {
		t.Errorf("count = %d, want >= 7", body.Pairs[0].Count)
	}
}

func TestV1MergedSnapshot(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	var body struct {
		Devices    []string `json:"devices"`
		TotalPairs int      `json:"totalPairs"`
		Pairs      []struct {
			Count uint32
		} `json:"pairs"`
	}
	code, _ := getEnvelope(t, srv.URL+"/v1/snapshot?support=3", &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(body.Devices) != 2 || body.TotalPairs != 1 {
		t.Fatalf("body = %+v", body)
	}
	// Both devices saw the same pair: merged count is the sum (>= 14).
	if body.Pairs[0].Count < 14 {
		t.Errorf("merged count = %d, want >= 14 (summed across devices)", body.Pairs[0].Count)
	}
}

func TestV1DeviceRules(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	var body struct {
		Device string `json:"device"`
		Rules  []struct {
			Confidence float64
		} `json:"rules"`
	}
	code, _ := getEnvelope(t, srv.URL+"/v1/devices/vol1/rules?support=3&confidence=0.9&top=5", &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.Device != "vol1" || len(body.Rules) != 2 {
		t.Fatalf("body = %+v", body)
	}
	for _, r := range body.Rules {
		if r.Confidence < 0.9 {
			t.Errorf("rule below confidence filter: %+v", r)
		}
	}
}

func TestV1MergedRules(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	var body struct {
		Devices []string `json:"devices"`
		Rules   []struct {
			Support    uint32
			Confidence float64
		} `json:"rules"`
	}
	// Support 10 exceeds any single device's counter (7) but not the
	// fleet-wide sum — only the merged view can satisfy it.
	code, _ := getEnvelope(t, srv.URL+"/v1/rules?support=10&confidence=0.5", &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(body.Devices) != 2 || len(body.Rules) != 2 {
		t.Fatalf("body = %+v", body)
	}
	if body.Rules[0].Support < 14 {
		t.Errorf("merged support = %d, want >= 14", body.Rules[0].Support)
	}
}

func TestV1UnknownDevice(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b *backend) {
		for _, path := range []string{
			"/v1/devices/nope/snapshot",
			"/v1/devices/nope/rules",
		} {
			code, apiErr := getEnvelope(t, b.url+path, nil)
			if code != http.StatusNotFound {
				t.Errorf("%s: status = %d, want 404", path, code)
			}
			if apiErr == nil || apiErr.Code != api.ErrCodeUnknownDevice {
				t.Errorf("%s: error = %+v, want code %q", path, apiErr, api.ErrCodeUnknownDevice)
			}
		}
	})
}

func TestV1BadParams(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b *backend) {
		for _, path := range []string{
			"/v1/snapshot?support=x",
			"/v1/snapshot?top=-1",
			"/v1/snapshot?support=99999999999999999999",
			"/v1/devices/vol0/snapshot?top=x",
			"/v1/devices/vol0/rules?confidence=2",
			"/v1/rules?confidence=nope",
			"/v1/rules?support=4294967296", // one past uint32
			"/v1/watch?wait=nope",
			"/v1/devices/vol0/watch?wait=-1s",
			"/v1/watch?interval=-1s",
			"/v1/devices/vol0/watch?interval=soon&wait=1s",
		} {
			code, apiErr := getEnvelope(t, b.url+path, nil)
			if code != http.StatusBadRequest {
				t.Errorf("%s: status = %d, want 400", path, code)
			}
			if apiErr == nil || apiErr.Code != api.ErrCodeBadRequest {
				t.Errorf("%s: error = %+v, want code %q", path, apiErr, api.ErrCodeBadRequest)
			}
		}
	})
}

func TestV1TopClamped(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b *backend) {
		// A huge-but-parseable top is clamped to MaxTop, not rejected.
		code, _ := getEnvelope(t, b.url+"/v1/snapshot?top=2000000000", nil)
		if code != http.StatusOK {
			t.Errorf("clamped top: status = %d, want 200", code)
		}
		// top=0 is a valid request for nothing, on every list.
		for _, path := range []string{"/v1/rules", "/v1/devices/vol0/rules", "/v1/snapshot", "/v1/devices/vol0/snapshot"} {
			var body struct {
				Pairs []any `json:"pairs"`
				Rules []any `json:"rules"`
			}
			code, _ := getEnvelope(t, b.url+path+"?support=3&top=0", &body)
			if code != http.StatusOK || len(body.Pairs) != 0 || len(body.Rules) != 0 {
				t.Errorf("%s?top=0 = %d with %d pairs, %d rules; want 200 and none", path, code, len(body.Pairs), len(body.Rules))
			}
		}
	})
}

func TestV1AfterStop(t *testing.T) {
	e, srv := servedEngine(t)
	e.Stop()
	for _, path := range []string{
		"/v1/stats",
		"/v1/devices",
		"/v1/devices/vol0/snapshot",
		"/v1/devices/vol0/rules",
		"/v1/snapshot",
		"/v1/rules",
	} {
		code, apiErr := getEnvelope(t, srv.URL+path, nil)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", path, code)
		}
		if apiErr == nil || apiErr.Code != ErrCodeStopped {
			t.Errorf("%s: error = %+v, want code %q", path, apiErr, ErrCodeStopped)
		}
	}
	// Ingest rejects with the same typed code as the queries: a
	// producer racing shutdown sees one consistent answer.
	resp, err := http.Post(srv.URL+"/v1/devices/vol0/events", "application/json",
		strings.NewReader(`{"events":[{"time":1,"op":"read","block":1,"len":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error *struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != ErrCodeStopped {
		t.Errorf("post-stop ingest = %d %+v, want 503 %q", resp.StatusCode, env.Error, ErrCodeStopped)
	}
}

// TestAliasesRemoved pins the v1 surface cleanup: the pre-v1
// unversioned routes are gone and answer 404 like any unknown path.
func TestAliasesRemoved(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	for _, path := range []string{"/stats", "/snapshot", "/rules"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404 (alias removed)", path, resp.StatusCode)
		}
	}
}
