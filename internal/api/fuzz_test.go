package api

import (
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// FuzzQueryParams throws arbitrary support/top/confidence strings at
// the v1 parameter parsers. The contract under fuzzing: no panics, an
// accepted value is always in range (support fits uint32, top never
// exceeds MaxTop, confidence stays in [0,1]), and rejection agrees with
// the documented grammar rather than depending on parser side effects.
func FuzzQueryParams(f *testing.F) {
	f.Add("", "", "")
	f.Add("5", "10", "0.8")
	f.Add("-1", "0", "1.0000001")
	f.Add("4294967296", "99999999999", "NaN")
	f.Add("0x10", "+3", "-0")
	f.Add("٣", "1e2", "Inf")
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
		r := httptest.NewRequest("GET", "/v1/rules?"+q.Encode(), nil)

		gotSupport, gotTop, err := snapshotParams(r)
		wantSupport, supErr := strconv.ParseUint(support, 10, 32)
		_, topErr := strconv.ParseUint(top, 10, 31)
		wantErr := (support != "" && supErr != nil) || (top != "" && topErr != nil)
		if (err != nil) != wantErr {
			t.Fatalf("snapshotParams(support=%q, top=%q) err = %v, want error %v",
				support, top, err, wantErr)
		}
		if err == nil {
			if support != "" && gotSupport != uint32(wantSupport) {
				t.Errorf("support %q parsed as %d, want %d", support, gotSupport, wantSupport)
			}
			if support == "" && gotSupport != DefaultSupport {
				t.Errorf("empty support = %d, want default %d", gotSupport, DefaultSupport)
			}
			if gotTop < 0 || gotTop > MaxTop {
				t.Errorf("top %q parsed as %d, outside [0, %d]", top, gotTop, MaxTop)
			}
			if top == "" && gotTop != DefaultTop {
				t.Errorf("empty top = %d, want default %d", gotTop, DefaultTop)
			}
		}

		_, _, gotConf, err := ruleParams(r)
		if err == nil && (gotConf < 0 || gotConf > 1) {
			t.Errorf("confidence %q accepted as %v, outside [0,1]", conf, gotConf)
		}
		if err == nil && conf == "" && gotConf != DefaultConfidence {
			t.Errorf("empty confidence = %v, want default %v", gotConf, DefaultConfidence)
		}
	})
}
