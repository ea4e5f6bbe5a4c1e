package realtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"daccor/internal/api"
)

// postEnvelope posts a JSON body to a v1 route and decodes the
// envelope, checking the same one-of-data-and-error invariant as
// getEnvelope.
func postEnvelope(t *testing.T, url, body string, data any) (int, *struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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
		if data != nil {
			if err := json.Unmarshal(env.Data, data); err != nil {
				t.Fatalf("unmarshal %s data: %v", url, err)
			}
		}
	} else if env.Error == nil {
		t.Errorf("%s: status %d with null error", url, resp.StatusCode)
	}
	return resp.StatusCode, env.Error
}

func ingestBodyJSON(events ...string) string {
	return `{"events":[` + strings.Join(events, ",") + `]}`
}

func TestV1IngestEvents(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	before, err := e.DeviceStatsFor("vol0")
	if err != nil {
		t.Fatal(err)
	}
	// Two transactions of the correlated pair, continuing the timestamps
	// the served engine seeded.
	var evs []string
	base := int64(100 * time.Second)
	for i := 0; i < 2; i++ {
		ts := base + int64(i)*int64(time.Second)
		evs = append(evs,
			fmt.Sprintf(`{"time":%d,"pid":7,"op":"read","block":10,"len":1}`, ts),
			fmt.Sprintf(`{"time":%d,"pid":7,"op":"write","block":20,"len":1}`, ts+1000),
		)
	}
	var body struct {
		Device   string `json:"device"`
		Accepted int    `json:"accepted"`
	}
	code, _ := postEnvelope(t, srv.URL+"/v1/devices/vol0/events", ingestBodyJSON(evs...), &body)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.Device != "vol0" || body.Accepted != 4 {
		t.Errorf("body = %+v, want device vol0 accepted 4", body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds, err := e.DeviceStatsFor("vol0")
		if err != nil {
			t.Fatal(err)
		}
		if ds.Monitor.Events >= before.Monitor.Events+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested events not processed: %d", ds.Monitor.Events)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestV1IngestErrors(t *testing.T) {
	e, srv := servedEngine(t)
	defer e.Stop()
	url := srv.URL + "/v1/devices/vol0/events"
	before, err := e.DeviceStatsFor("vol0")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body, wantCode string
		wantStatus           int
		wantMsg              string
	}{
		{"malformed JSON", `{"events":`, api.ErrCodeBadRequest, http.StatusBadRequest, "invalid JSON"},
		{"unknown field", `{"evnts":[]}`, api.ErrCodeBadRequest, http.StatusBadRequest, "invalid JSON"},
		{"empty batch", `{"events":[]}`, api.ErrCodeBadRequest, http.StatusBadRequest, "non-empty"},
		{"bad op", ingestBodyJSON(`{"time":1,"op":"trim","block":1,"len":1}`),
			api.ErrCodeBadRequest, http.StatusBadRequest, "event 0"},
		{"invalid event", ingestBodyJSON(
			`{"time":1,"op":"read","block":1,"len":1}`,
			`{"time":2,"op":"read","block":1,"len":0}`),
			api.ErrCodeBadRequest, http.StatusBadRequest, "event 1"},
		// A second batch after the first used to be dropped silently
		// while the first was accepted.
		{"concatenated batches", ingestBodyJSON(`{"time":1,"op":"read","block":1,"len":1}`) +
			ingestBodyJSON(`{"time":2,"op":"read","block":2,"len":1}`),
			api.ErrCodeBadRequest, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", ingestBodyJSON(`{"time":1,"op":"read","block":1,"len":1}`) + "x",
			api.ErrCodeBadRequest, http.StatusBadRequest, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, apiErr := postEnvelope(t, url, tc.body, nil)
			if code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", code, tc.wantStatus)
			}
			if apiErr == nil || apiErr.Code != tc.wantCode {
				t.Fatalf("error = %+v, want code %s", apiErr, tc.wantCode)
			}
			if !strings.Contains(apiErr.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", apiErr.Message, tc.wantMsg)
			}
		})
	}

	// Oversized batch rejected up front.
	var big bytes.Buffer
	big.WriteString(`{"events":[`)
	for i := 0; i <= MaxIngestBatch; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"time":%d,"op":"read","block":1,"len":1}`, i)
	}
	big.WriteString(`]}`)
	code, apiErr := postEnvelope(t, url, big.String(), nil)
	if code != http.StatusBadRequest || apiErr == nil || !strings.Contains(apiErr.Message, "batch too large") {
		t.Errorf("oversized batch: status %d error %+v", code, apiErr)
	}

	// Nothing of any rejected body reached the device.
	after, err := e.DeviceStatsFor("vol0")
	if err != nil {
		t.Fatal(err)
	}
	if after.Monitor.Events != before.Monitor.Events || after.Lag != 0 {
		t.Errorf("rejected bodies moved the device: events %d -> %d, lag %d",
			before.Monitor.Events, after.Monitor.Events, after.Lag)
	}

	// Unknown device maps through the engine error path.
	code, apiErr = postEnvelope(t, srv.URL+"/v1/devices/nope/events",
		ingestBodyJSON(`{"time":1,"op":"read","block":1,"len":1}`), nil)
	if code != http.StatusNotFound || apiErr == nil || apiErr.Code != api.ErrCodeUnknownDevice {
		t.Errorf("unknown device: status %d error %+v", code, apiErr)
	}
}
