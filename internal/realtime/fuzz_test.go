package realtime

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/fleet"
)

// FuzzV1QueryParams throws arbitrary support/top/confidence strings at
// GET /v1/rules on both daemons' handlers. The parsers' own contract
// (accepted values in range, defaults) is fuzzed where they live, in
// internal/api; the contract here is the one that had drifted between
// the daemons: no panics and no 5xx, and each handler answers 400
// exactly when the documented grammar rejects the input — the same
// input is never a 400 on one daemon and a 200 on the other.
func FuzzV1QueryParams(f *testing.F) {
	f.Add("", "", "")
	f.Add("5", "10", "0.8")
	f.Add("-1", "0", "1.0000001")
	f.Add("4294967296", "99999999999", "NaN")
	f.Add("0x10", "+3", "-0")
	f.Add("٣", "1e2", "Inf")

	e, err := engine.New(engine.WithDevices("vol0"),
		engine.WithAnalyzer(core.Config{ItemCapacity: 64, PairCapacity: 64}))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(e.Stop)
	handlers := map[string]http.Handler{
		"engine":     NewEngineHandler(e),
		"aggregator": fleet.NewHandler(fleet.NewAggregator(fleet.Config{})),
	}
	f.Fuzz(func(t *testing.T, support, top, conf string) {
		q := url.Values{}
		if support != "" {
			q.Set("support", support)
		}
		if top != "" {
			q.Set("top", top)
		}
		if conf != "" {
			q.Set("confidence", conf)
		}
		_, supErr := strconv.ParseUint(support, 10, 32)
		_, topErr := strconv.ParseUint(top, 10, 31)
		c, confErr := strconv.ParseFloat(conf, 64)
		want := http.StatusOK
		if (support != "" && supErr != nil) || (top != "" && topErr != nil) ||
			(conf != "" && (confErr != nil || c < 0 || c > 1)) {
			want = http.StatusBadRequest
		}
		for name, h := range handlers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/rules?"+q.Encode(), nil))
			if rec.Code != want {
				t.Errorf("%s: GET /v1/rules?%s = %d, want %d (body %s)", name, q.Encode(), rec.Code, want, rec.Body)
			}
		}
	})
}
