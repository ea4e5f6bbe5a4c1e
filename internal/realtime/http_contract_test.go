package realtime

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"daccor/internal/api"
	"daccor/internal/fleet"
)

// contractCase pins one route's status code and envelope. Every v1
// route — including watch in its long-poll form, ingest, and delete —
// must answer the {data, error} envelope with exactly one side set;
// unmatched paths (including the removed pre-v1 aliases) answer the
// mux's plain 404.
type contractCase struct {
	name       string
	method     string
	path       string
	body       string
	wantStatus int
	wantCode   string // expected error.code; "" means data must be set
	enveloped  bool   // false: plain (mux 404, prometheus text)
}

// checkContract issues one request and verifies the envelope
// invariant against the expectation.
func checkContract(t *testing.T, base string, c contractCase) {
	t.Helper()
	var body io.Reader
	if c.body != "" {
		body = strings.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method, base+c.path, body)
	if err != nil {
		t.Fatal(err)
	}
	if c.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != c.wantStatus {
		t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, c.wantStatus, raw)
	}
	if !c.enveloped {
		return
	}
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("not an envelope: %v (body %s)", err, raw)
	}
	if c.wantCode == "" {
		if env.Error != nil {
			t.Errorf("unexpected error %+v", env.Error)
		}
		if len(env.Data) == 0 || string(env.Data) == "null" {
			t.Errorf("success with null data (body %s)", raw)
		}
		return
	}
	if string(env.Data) != "null" && len(env.Data) != 0 {
		t.Errorf("error response carries data %s", env.Data)
	}
	if env.Error == nil {
		t.Fatalf("error response with null error (body %s)", raw)
	}
	if env.Error.Code != c.wantCode {
		t.Errorf("error.code = %q, want %q", env.Error.Code, c.wantCode)
	}
	if env.Error.Message == "" {
		t.Error("error.message is empty")
	}
}

// readContract is the part of the route table both daemons must answer
// identically: the shared read surface's successes, bad parameters,
// and unknown devices, plus what falls outside the envelope.
var readContract = []contractCase{
	// Success paths.
	{"devices", "GET", "/v1/devices", "", 200, "", true},
	{"device snapshot", "GET", "/v1/devices/vol0/snapshot?support=3", "", 200, "", true},
	{"device rules", "GET", "/v1/devices/vol0/rules?support=3&confidence=0.5", "", 200, "", true},
	{"device watch poll", "GET", "/v1/devices/vol0/watch?wait=50ms", "", 200, "", true},
	{"fleet snapshot", "GET", "/v1/snapshot", "", 200, "", true},
	{"fleet rules", "GET", "/v1/rules", "", 200, "", true},
	{"fleet watch poll", "GET", "/v1/watch?wait=50ms", "", 200, "", true},
	{"healthz", "GET", "/v1/healthz", "", 200, "", true},
	{"readyz", "GET", "/v1/readyz", "", 200, "", true},

	// Bad parameters: uniformly 400 bad_request.
	{"bad support", "GET", "/v1/snapshot?support=x", "", 400, api.ErrCodeBadRequest, true},
	{"bad top", "GET", "/v1/devices/vol0/snapshot?top=x", "", 400, api.ErrCodeBadRequest, true},
	{"bad confidence", "GET", "/v1/rules?confidence=2", "", 400, api.ErrCodeBadRequest, true},
	{"bad wait fleet", "GET", "/v1/watch?wait=nope", "", 400, api.ErrCodeBadRequest, true},
	{"bad wait device", "GET", "/v1/devices/vol0/watch?wait=-1s", "", 400, api.ErrCodeBadRequest, true},
	{"bad watch params", "GET", "/v1/watch?confidence=9&wait=50ms", "", 400, api.ErrCodeBadRequest, true},

	// Unknown device: uniformly 404 unknown_device.
	{"unknown snapshot", "GET", "/v1/devices/nope/snapshot", "", 404, api.ErrCodeUnknownDevice, true},
	{"unknown rules", "GET", "/v1/devices/nope/rules", "", 404, api.ErrCodeUnknownDevice, true},
	{"unknown watch", "GET", "/v1/devices/nope/watch?wait=50ms", "", 404, api.ErrCodeUnknownDevice, true},

	// Outside the envelope: prometheus text and unmatched paths,
	// including the removed pre-v1 aliases.
	{"metrics", "GET", "/v1/metrics", "", 200, "", false},
	{"unmatched", "GET", "/v1/nope", "", 404, "", false},
	{"alias stats", "GET", "/stats", "", 404, "", false},
	{"alias snapshot", "GET", "/snapshot", "", 404, "", false},
	{"alias rules", "GET", "/rules", "", 404, "", false},
}

// TestV1EnvelopeContract runs the full route table against both
// daemons: every success, bad-request, and unknown-device answer in
// one place — the shared read surface's table on each, then the routes
// only that daemon has. Order matters only for the final DELETE, which
// mutates the engine.
func TestV1EnvelopeContract(t *testing.T) {
	ingest := `{"events":[{"time":999000000000,"op":"read","block":1,"len":1}]}`
	collectorOnly := []contractCase{
		{"stats", "GET", "/v1/stats", "", 200, "", true},
		{"ingest", "POST", "/v1/devices/vol0/events", ingest, 200, "", true},
		{"bad ingest body", "POST", "/v1/devices/vol0/events", `{"events":[{"op":"chmod"}]}`, 400, api.ErrCodeBadRequest, true},
		{"unknown ingest", "POST", "/v1/devices/nope/events", ingest, 404, api.ErrCodeUnknownDevice, true},
		{"unknown delete", "DELETE", "/v1/devices/nope", "", 404, api.ErrCodeUnknownDevice, true},

		// Last: unregister mutates the fleet.
		{"delete device", "DELETE", "/v1/devices/vol1", "", 200, "", true},
	}
	aggregatorOnly := []contractCase{
		{"collectors", "GET", "/v1/collectors", "", 200, "", true},
		{"bad sync frame", "POST", "/v1/sync", "not a DFLT frame", 400, fleet.ErrCodeBadFrame, true},
		// The collector's own routes do not exist here.
		{"no ingest", "POST", "/v1/devices/vol0/events", ingest, 404, "", false},
		{"no stats", "GET", "/v1/stats", "", 404, "", false},
	}
	// The collector's cases keep their historical top-level names; the
	// aggregator's run one level down.
	b := engineBackend(t)
	for _, c := range slices.Concat(readContract, collectorOnly) {
		t.Run(c.name, func(t *testing.T) { checkContract(t, b.url, c) })
	}
	t.Run("aggregator", func(t *testing.T) {
		b := aggregatorBackend(t)
		for _, c := range slices.Concat(readContract, aggregatorOnly) {
			t.Run(c.name, func(t *testing.T) { checkContract(t, b.url, c) })
		}
	})
}

// TestV1EnvelopeContractStopped pins the post-stop answers: every
// engine-backed route converges on 503 stopped; readiness reports
// not-ready as data, not as an error.
func TestV1EnvelopeContractStopped(t *testing.T) {
	e, srv := servedEngine(t)
	e.Stop()
	ingest := `{"events":[{"time":1,"op":"read","block":1,"len":1}]}`
	cases := []contractCase{
		{"stats", "GET", "/v1/stats", "", 503, ErrCodeStopped, true},
		{"devices", "GET", "/v1/devices", "", 503, ErrCodeStopped, true},
		{"device snapshot", "GET", "/v1/devices/vol0/snapshot", "", 503, ErrCodeStopped, true},
		{"device rules", "GET", "/v1/devices/vol0/rules", "", 503, ErrCodeStopped, true},
		{"device watch", "GET", "/v1/devices/vol0/watch?wait=1s", "", 503, ErrCodeStopped, true},
		{"fleet snapshot", "GET", "/v1/snapshot", "", 503, ErrCodeStopped, true},
		{"fleet rules", "GET", "/v1/rules", "", 503, ErrCodeStopped, true},
		{"fleet watch", "GET", "/v1/watch?wait=1s", "", 503, ErrCodeStopped, true},
		{"ingest", "POST", "/v1/devices/vol0/events", ingest, 503, ErrCodeStopped, true},
		{"delete", "DELETE", "/v1/devices/vol0", "", 503, ErrCodeStopped, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkContract(t, srv.URL, c) })
	}
	// Readiness is a status report, not an error: 503 with data.
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Data *struct {
			Ready bool `json:"ready"`
		} `json:"data"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Data == nil || env.Data.Ready {
		t.Errorf("post-stop readyz = %d %+v, want 503 with ready=false data", resp.StatusCode, env.Data)
	}
}
