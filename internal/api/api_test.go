package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"daccor/internal/obs"
)

// TestQueryRoutes pins what the shared query routes do with a Source:
// the view naming (device vs devices), where the decorator applies,
// top=0 served as empty without ever asking the source, and a source's
// typed and untyped errors travelling through the one envelope.
func TestQueryRoutes(t *testing.T) {
	src := newFakeSource()
	srv, _ := serveFake(t, src)

	resp, body := get(t, srv.URL+"/v1/devices/a/snapshot?support=1")
	data := dataOf(t, body)
	if resp.StatusCode != 200 || data["device"] != "a" || data["devices"] != nil || data["totalPairs"] != 1.0 || data["stamp"] != true {
		t.Fatalf("device snapshot = %d %v", resp.StatusCode, data)
	}
	_, body = get(t, srv.URL+"/v1/rules?support=1&confidence=0.5")
	data = dataOf(t, body)
	if rules, _ := data["rules"].([]any); len(rules) != 2 || data["device"] != nil || len(data["devices"].([]any)) != 2 || data["stamp"] != true {
		t.Fatalf("merged rules = %v", data)
	}
	// top=0 is an empty list on every route, and the fake fails the
	// request if the handler pushes a non-positive limit down.
	for _, path := range []string{"/v1/rules?top=0&support=1", "/v1/devices/b/rules?top=0&support=1"} {
		resp, body = get(t, srv.URL+path)
		if rules, ok := dataOf(t, body)["rules"].([]any); resp.StatusCode != 200 || !ok || len(rules) != 0 {
			t.Errorf("%s = %d %s, want 200 with empty rules", path, resp.StatusCode, body)
		}
	}

	// The device listing is an array of rows — not an object, so not
	// decorated — and a row without ingest counters is just its id.
	_, body = get(t, srv.URL+"/v1/devices")
	var env struct {
		Data []map[string]any `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("devices: %v (body %s)", err, body)
	}
	if len(env.Data) != 2 || env.Data[0]["events"] != 7.0 || len(env.Data[1]) != 1 || env.Data[1]["id"] != "b" {
		t.Fatalf("device rows = %v", env.Data)
	}

	checkError := func(path string, status int, code string) {
		t.Helper()
		resp, body := get(t, srv.URL+path)
		var env struct {
			Data  any    `json:"data"`
			Error *Error `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: %v (body %s)", path, err, body)
		}
		if resp.StatusCode != status || env.Data != nil || env.Error == nil || env.Error.Code != code || env.Error.Message == "" {
			t.Errorf("%s = %d %s, want %d %s", path, resp.StatusCode, body, status, code)
		}
	}
	checkError("/v1/devices/nope/rules", 404, ErrCodeUnknownDevice)
	checkError("/v1/devices/nope/watch", 404, ErrCodeUnknownDevice)
	checkError("/v1/snapshot?top=-1", 400, ErrCodeBadRequest)
	src.mu.Lock()
	src.broken = errors.New("disk on fire") // untyped: the client sees 500 internal
	src.mu.Unlock()
	for _, path := range []string{"/v1/snapshot", "/v1/devices/a/rules", "/v1/devices", "/v1/watch", "/v1/watch?wait=1s"} {
		checkError(path, 500, ErrCodeInternal)
	}
}

// TestETagFollowsCursor: a query route's 200 carries an ETag; replaying
// it answers 304 with no body while the cursor holds; the tag is scoped
// to the parameters; and a cursor advance turns it back into a 200
// under a new tag.
func TestETagFollowsCursor(t *testing.T) {
	src := newFakeSource()
	srv, reg := serveFake(t, src)
	for _, path := range []string{"/v1/snapshot?support=1", "/v1/rules?support=1", "/v1/devices/a/snapshot?support=1", "/v1/devices/a/rules?support=1"} {
		resp, _ := get(t, srv.URL+path)
		tag := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || tag == "" {
			t.Fatalf("%s: status %d, ETag %q", path, resp.StatusCode, tag)
		}
		if resp, body := get(t, srv.URL+path, "If-None-Match", tag); resp.StatusCode != 304 || len(body) != 0 {
			t.Fatalf("%s revalidation = %d %q, want bodiless 304", path, resp.StatusCode, body)
		}
		if resp, _ := get(t, srv.URL+path+"&top=1", "If-None-Match", tag); resp.StatusCode != 200 {
			t.Fatalf("%s: tag revalidated under different parameters", path)
		}
		src.advance(1)
		resp, _ = get(t, srv.URL+path, "If-None-Match", tag)
		if resp.StatusCode != 200 || resp.Header.Get("ETag") == tag {
			t.Fatalf("%s after advance = %d, ETag %q; want 200 under a new tag", path, resp.StatusCode, resp.Header.Get("ETag"))
		}
	}
	if n := reg.Counter(MetricHTTPRequests, "", obs.L("route", "GET /v1/rules"), obs.L("code", "304")).Value(); n != 1 {
		t.Errorf("middleware counted %d 304s on GET /v1/rules, want 1", n)
	}
}

func TestCursorTokens(t *testing.T) {
	for _, c := range []struct {
		device string
		cur    Cursor
		want   string
	}{
		{"vol0", Cursor{Epoch: 17}, "17"},
		{"vol0", Cursor{Epoch: 17, N: 1}, "17.1"},
		{"", Cursor{Epoch: 103, N: 2}, "103.2"},
		{"", Cursor{}, "0.0"},
	} {
		got := formatCursor(c.device, c.cur)
		if got != c.want {
			t.Errorf("formatCursor(%q, %+v) = %q, want %q", c.device, c.cur, got, c.want)
		}
		if back, ok := parseCursor(got); !ok || back != c.cur {
			t.Errorf("parseCursor(%q) = %+v, %v; want %+v", got, back, ok, c.cur)
		}
	}
	for _, bad := range []string{"", "x", "-1", "1.", "1.-2", "1.2.3", "+1", " 1"} {
		if c, ok := parseCursor(bad); ok {
			t.Errorf("parseCursor(%q) = %+v, want rejection", bad, c)
		}
	}
}

// TestWatchParams covers the two parameters only the watch routes
// take.
func TestWatchParams(t *testing.T) {
	srv, _ := serveFake(t, newFakeSource())
	for _, q := range []string{"wait=nope", "wait=-1s", "wait=0", "interval=-1s", "interval=soon", "wait=1s&confidence=9"} {
		resp, body := get(t, srv.URL+"/v1/watch?"+q)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), ErrCodeBadRequest) {
			t.Errorf("%s = %d %s, want 400 bad_request", q, resp.StatusCode, body)
		}
	}
}
