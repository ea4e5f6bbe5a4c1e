package realtime

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/pkg/client"
)

// ingestEvent and ingestBody are the wire shapes the ingest route was
// decoded into with encoding/json; decodeIngestOracle is that decoder,
// kept as the oracle decodeIngest is held to.
type ingestEvent struct {
	Time  int64  `json:"time"`
	PID   uint32 `json:"pid"`
	Op    string `json:"op"`
	Block uint64 `json:"block"`
	Len   uint32 `json:"len"`
}

type ingestBody struct {
	Events []ingestEvent `json:"events"`
}

// decodeIngestOracle parses and validates a batch ingest request. Every
// event is checked here so a bad one answers 400 with its index,
// rather than surfacing as an opaque engine error.
func decodeIngestOracle(r io.Reader) ([]blktrace.Event, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var body ingestBody
	if err := dec.Decode(&body); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %v", err)
	}
	if len(body.Events) == 0 {
		return nil, errors.New("events must be a non-empty array")
	}
	if len(body.Events) > MaxIngestBatch {
		return nil, fmt.Errorf("batch too large: %d events (max %d)", len(body.Events), MaxIngestBatch)
	}
	evs := make([]blktrace.Event, len(body.Events))
	for i, we := range body.Events {
		var op blktrace.Op
		switch we.Op {
		case "read":
			op = blktrace.OpRead
		case "write":
			op = blktrace.OpWrite
		default:
			return nil, fmt.Errorf("event %d: op must be \"read\" or \"write\" (got %q)", i, we.Op)
		}
		evs[i] = blktrace.Event{
			Time:   we.Time,
			PID:    we.PID,
			Op:     op,
			Extent: blktrace.Extent{Block: we.Block, Len: we.Len},
		}
		if err := evs[i].Validate(); err != nil {
			return nil, fmt.Errorf("event %d: %v", i, err)
		}
	}
	return evs, nil
}

const invalidJSON = "invalid JSON body: "

// oracleDecode is the oracle plus the one rule the scanner adds:
// anything but whitespace after the top-level value is rejected.
func oracleDecode(body []byte) ([]blktrace.Event, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var first json.RawMessage
	if dec.Decode(&first) == nil {
		if len(bytes.Trim(body[dec.InputOffset():], " \t\r\n")) > 0 {
			return nil, errTrailingData
		}
	}
	return decodeIngestOracle(bytes.NewReader(body))
}

// checkIngestDecode holds decodeIngest to the oracle on one body: the
// same accept/reject, the same events on accept, the same message on a
// semantic reject, and the invalidJSON prefix on both for a syntax or
// type reject. dst is decoded into to prove stale buffer contents
// never leak into a result.
func checkIngestDecode(t *testing.T, body []byte, dst []blktrace.Event) {
	t.Helper()
	want, wantErr := oracleDecode(body)
	got, gotErr := decodeIngest(body, dst)
	switch {
	case wantErr == nil && gotErr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: events differ\n got %+v\nwant %+v", clip(body), got, want)
		}
	case wantErr == nil || gotErr == nil:
		t.Fatalf("body %q: decodeIngest err %v, oracle err %v", clip(body), gotErr, wantErr)
	case strings.HasPrefix(wantErr.Error(), invalidJSON):
		if !strings.HasPrefix(gotErr.Error(), invalidJSON) {
			t.Fatalf("body %q: decodeIngest err %q, oracle rejects the syntax: %q", clip(body), gotErr, wantErr)
		}
	case gotErr.Error() != wantErr.Error():
		t.Fatalf("body %q: decodeIngest err %q, oracle err %q", clip(body), gotErr, wantErr)
	}
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return append(b[:200:200], "..."...)
	}
	return b
}

// dirtyEvents is a reused destination whose backing array holds junk.
func dirtyEvents(n int) []blktrace.Event {
	evs := make([]blktrace.Event, n)
	for i := range evs {
		evs[i] = blktrace.Event{Time: 77, PID: 77, Op: blktrace.OpWrite, Extent: blktrace.Extent{Block: 77, Len: 77}}
	}
	return evs[:0]
}

const ev1 = `{"time":1,"pid":2,"op":"read","block":3,"len":4}`

// batchBody builds a canonical body of n valid events.
func batchBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"events":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"time":%d,"pid":%d,"op":"read","block":%d,"len":8}`, 1_000_000+i*1000, i%7, 8*i)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// ingestSeeds are the bodies both the table test and the fuzz corpus
// start from: every decoder quirk, plus the edges of the grammar.
func ingestSeeds() []string {
	ev := func(fields string) string { return `{"events":[{` + fields + `}]}` }
	seeds := []string{
		// Accepted shapes.
		`{"events":[` + ev1 + `]}`,
		`{"events":[` + ev1 + `,` + ev1 + `]}`,
		" \t\r\n{ \"events\" : [ " + ev1 + " ] } \n",
		ev(`"time":1,"op":"write","block":3,"len":4`), // pid missing
		ev(`"len":4,"block":3,"op":"read","pid":2,"time":1`),
		// Key folding: exact first, then bytes.EqualFold on the unescaped key.
		`{"EVENTS":[` + ev1 + `]}`,
		`{"Events":[` + ev1 + `]}`,
		"{\"eventſ\":[" + ev1 + "]}",
		ev("\"TIME\":1,\"Op\":\"read\",\"blocK\":3,\"LEN\":4,\"Pid\":1"),
		ev(`"TIME":1,"OP":"write","blocK":3,"Len":4`),
		`{"\u0065vents":[` + ev1 + `]}`,
		`{"\u0045VENT\u017f":[` + ev1 + `]}`,
		ev(`"\u0074ime":1,"op":"read","block":3,"len":4`),
		ev(`"ti\u006de":1,"\u006fp":"read","bloc\u212a":3,"len":4`),
		ev(`"t\ud83dime":1,"op":"read","block":3,"len":4`),
		`{"event":[` + ev1 + `]}`,
		`{"events ":[` + ev1 + `]}`,
		// null: any field keeps its value; an element stays as it was.
		ev(`"time":null,"pid":null,"op":"read","block":3,"len":4`),
		ev(`"time":1,"op":"read","block":3,"len":4,"op":null`),
		ev(`"time":1,"op":null,"block":3,"len":4`),
		`{"events":[null]}`,
		`{"events":[` + ev1 + `,null]}`,
		`{"events":null}`,
		`{"events":[` + ev1 + `],"events":null}`,
		`{"events":null,"events":[` + ev1 + `]}`,
		`null`,
		` null `,
		`{}`,
		// Duplicate keys: the last wins; a repeated array merges element-wise.
		ev(`"time":1,"op":"read","block":3,"len":4,"time":9`),
		ev(`"time":1,"op":"trim","block":3,"len":4,"op":"write"`),
		`{"events":[` + ev1 + `,` + ev1 + `],"events":[{"time":5}]}`,
		`{"events":[` + ev1 + `,` + ev1 + `],"events":[{"time":5}],"events":[{},{"pid":9},{}]}`,
		`{"events":[` + ev1 + `,` + ev1 + `],"events":[],"events":[{},{}]}`,
		`{"events":[{"op":"bogus"},` + ev1 + `],"events":[{"time":1},{"time":2}]}`,
		`{"events":[` + ev1 + `],"events":[null,null]}`,
		// Escapes in op.
		ev(`"time":1,"op":"\u0072ead","block":3,"len":4`),
		ev(`"time":1,"op":"\u0077rit\u0065","block":3,"len":4`),
		ev(`"time":1,"op":"re\"ad","block":3,"len":4`),
		ev(`"time":1,"op":"😀","block":3,"len":4`),
		ev(`"time":1,"op":"\ud83d","block":3,"len":4`),
		ev(`"time":1,"op":"\ud83dx","block":3,"len":4`),
		ev(`"time":1,"op":"\ude00\ud83d","block":3,"len":4`),
		ev(`"time":1,"op":"\ud83dA","block":3,"len":4`),
		ev(`"time":1,"op":"\/\b\f\n\r\t\\","block":3,"len":4`),
		ev(`"time":1,"op":"\x","block":3,"len":4`),
		ev(`"time":1,"op":"\u00zz","block":3,"len":4`),
		ev(`"time":1,"op":"\u12","block":3,"len":4`),
		ev("\"time\":1,\"op\":\"re\xffad\",\"block\":3,\"len\":4"),
		ev("\"time\":1,\"op\":\"\xed\xa0\x80\",\"block\":3,\"len\":4"),
		ev("\"time\":1,\"op\":\"reäd\",\"block\":3,\"len\":4"),
		ev("\"time\":1,\"op\":\"read\x01\",\"block\":3,\"len\":4"),
		ev(`"time":1,"op":"READ","block":3,"len":4`),
		ev(`"time":1,"op":"","block":3,"len":4`),
		ev(`"time":1,"block":3,"len":4`),
		`{"events":[{}]}`,
		// Numbers: integer literals that fit.
		ev(`"time":1e2,"op":"read","block":3,"len":4`),
		ev(`"time":1.0,"op":"read","block":3,"len":4`),
		ev(`"time":1E2,"op":"read","block":3,"len":4`),
		ev(`"time":-0,"op":"read","block":3,"len":4`),
		ev(`"time":1,"pid":-0,"op":"read","block":3,"len":4`),
		ev(`"time":1,"op":"read","block":-0,"len":4`),
		ev(`"time":1,"op":"read","block":3,"len":-0`),
		ev(`"time":-5,"op":"read","block":3,"len":4`),
		ev(`"time":01,"op":"read","block":3,"len":4`),
		ev(`"time":-,"op":"read","block":3,"len":4`),
		ev(`"time":+1,"op":"read","block":3,"len":4`),
		ev(`"time":1.,"op":"read","block":3,"len":4`),
		ev(`"time":9223372036854775807,"op":"read","block":3,"len":4`),
		ev(`"time":9223372036854775808,"op":"read","block":3,"len":4`),
		ev(`"time":-9223372036854775808,"op":"read","block":3,"len":4`),
		ev(`"time":-9223372036854775809,"op":"read","block":3,"len":4`),
		ev(`"time":99999999999999999999999,"op":"read","block":3,"len":4`),
		ev(`"time":1,"pid":4294967295,"op":"read","block":3,"len":4`),
		ev(`"time":1,"pid":4294967296,"op":"read","block":3,"len":4`),
		ev(`"time":1,"op":"read","block":18446744073709551615,"len":1`),
		ev(`"time":1,"op":"read","block":18446744073709551614,"len":1`),
		ev(`"time":1,"op":"read","block":18446744073709551616,"len":1`),
		ev(`"time":1,"op":"read","block":3,"len":4294967295`),
		ev(`"time":1,"op":"read","block":3,"len":4294967296`),
		ev(`"time":1,"op":"read","block":3,"len":0`),
		ev(`"time":"1","op":"read","block":3,"len":4`),
		ev(`"time":true,"op":"read","block":3,"len":4`),
		ev(`"time":1,"op":read,"block":3,"len":4`),
		ev(`"time":1,"op":1,"block":3,"len":4`),
		ev(`"time":[],"op":"read","block":3,"len":4`),
		ev(`"time":{},"op":"read","block":3,"len":4`),
		// Whitespace is JSON whitespace only.
		"{\"events\":[\v" + ev1 + "]}",
		"{\"events\":[\f" + ev1 + "]}",
		"{\"events\":[ " + ev1 + "]}",
		// Syntax and shape.
		``,
		`   `,
		`[]`,
		`[` + ev1 + `]`,
		`"events"`,
		`42`,
		`true`,
		"\xef\xbb\xbf{\"events\":[" + ev1 + "]}",
		`{"events":[` + ev1,
		`{"events":[` + ev1 + `]`,
		`{"events":[` + ev1 + `],}`,
		`{"events":[` + ev1 + `,]}`,
		`{"events":[]}`,
		`{"events":{}}`,
		`{"events":"x"}`,
		`{"events":[1]}`,
		`{"events":[[]]}`,
		`{"events":[true]}`,
		`{"evnts":[]}`,
		`{"events":[` + ev1 + `],"extra":1}`,
		ev(`"time":1,"op":"read","block":3,"len":4,"nested":{"x":1}`),
		`{"events":[{"time":1,"op":"read","block":3,"len":4,"meta":{"deep":[1,{"a":null}]}}]}`,
		`{"events":[{"time":1,"op":"read","block":3,"len":4}`,
		`{"events":[{"time":1,"op":"rea`,
		`{"events":[{"time":1,"op":"read\`,
		`{"events":[{"time":1,"op":"read","block":3,"len":4}]}garbage`,
		`{"events":[{"time":1,"op":"read","block":3,"len":4}]} ` + "\n",
		`{"events":[` + ev1 + `]}{"events":[` + ev1 + `]}`,
		`{"events":[]}{"events":[` + ev1 + `]}`,
		`null{}`,
		`{"events":[` + ev1 + `]`,
		`{"events" [` + ev1 + `]}`,
		`{events:[` + ev1 + `]}`,
		`{"events":[{"time":1 "op":"read"}]}`,
		`{"events":nul}`,
		`{"events":[nul]}`,
		ev(`"time":nul,"op":"read","block":3,"len":4`),
		ev(`"time":nullx,"op":"read","block":3,"len":4`),
		// Precedence: a type error at event 5 beats an op error at event 2,
		// and an op error at event 2 beats a Validate error at event 4.
		`{"events":[` + ev1 + `,` + ev1 + `,{"op":"trim"},` + ev1 + `,{"op":"read","len":0},{"time":"x"}]}`,
		`{"events":[` + ev1 + `,` + ev1 + `,{"op":"trim"},` + ev1 + `,{"op":"read","len":0}]}`,
		`{"events":[` + ev1 + `,{"time":-1,"op":"read","len":1},{"op":"trim"}]}`,
	}
	seeds = append(seeds, string(batchBody(300)), string(batchBody(MaxIngestBatch)), string(batchBody(MaxIngestBatch+1)))
	return seeds
}

// TestIngestDecodeMatchesJSON is the fuzz test's corpus as a table:
// tier-1 checks the scanner against the encoding/json oracle without
// -fuzz.
func TestIngestDecodeMatchesJSON(t *testing.T) {
	for _, body := range ingestSeeds() {
		checkIngestDecode(t, []byte(body), nil)
		checkIngestDecode(t, []byte(body), dirtyEvents(16))
	}
}

// FuzzIngestDecode holds the scanner to encoding/json on arbitrary
// bodies (see checkIngestDecode).
func FuzzIngestDecode(f *testing.F) {
	for _, body := range ingestSeeds() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkIngestDecode(t, body, dirtyEvents(8))
	})
}

// TestIngestDecodeErrorText pins the messages an API consumer sees for
// each class of reject.
func TestIngestDecodeErrorText(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"events":[]}`, "events must be a non-empty array"},
		{`null`, "events must be a non-empty array"},
		{string(batchBody(MaxIngestBatch + 1)), "batch too large: 10001 events (max 10000)"},
		{`{"events":[{"time":1,"block":1,"len":1}]}`, `event 0: op must be "read" or "write" (got "")`},
		{`{"events":[` + ev1 + `,{"op":"trim"}]}`, `event 1: op must be "read" or "write" (got "trim")`},
		{`{"events":[` + ev1 + `,{"op":"read","block":1,"len":0}]}`, "event 1: blktrace: zero-length extent at block 1"},
		{`{"events":[` + ev1 + `]}{"events":[` + ev1 + `]}`, "invalid JSON body: trailing data after the top-level object"},
	} {
		if _, err := decodeIngest([]byte(tc.body), nil); err == nil || err.Error() != tc.want {
			t.Errorf("body %.60q: err %v, want %q", tc.body, err, tc.want)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestIngestDecodeZeroAllocSteadyState: once the pooled buffers are
// warm, reading and decoding a 300-event body allocates nothing.
func TestIngestDecodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random; make alloc-guard runs this without it")
	}
	body := batchBody(300)
	rd := bytes.NewReader(body)
	decode := func() {
		rd.Reset(body)
		buf := getIngestBuffers()
		evs, err := buf.decode(rd)
		if err != nil || len(evs) != 300 {
			t.Fatalf("decode: %d events, err %v", len(evs), err)
		}
		buf.release()
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("pooled ingest decode: %.1f allocs/run, want 0", allocs)
	}
}

// TestIngestBuffersNotPinned: a body buffer that grew past
// maxPooledBody is not kept by the pool.
func TestIngestBuffersNotPinned(t *testing.T) {
	buf := getIngestBuffers()
	big := append(batchBody(300), bytes.Repeat([]byte{' '}, maxPooledBody)...)
	if _, err := buf.decode(bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	if cap(buf.body) <= maxPooledBody {
		t.Fatalf("body buffer cap %d, want > %d for a %d-byte body", cap(buf.body), maxPooledBody, len(big))
	}
	buf.release()
	if buf.body != nil {
		t.Errorf("released buffer kept a %d-byte body", cap(buf.body))
	}
}

// BenchmarkIngestDecode compares the scanner with the encoding/json
// oracle on the same 300-event body.
func BenchmarkIngestDecode(b *testing.B) {
	body := batchBody(300)
	const n = 300
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
	}
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := decodeIngestOracle(bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var dst []blktrace.Event
		for i := 0; i < b.N; i++ {
			evs, err := decodeIngest(body, dst)
			if err != nil {
				b.Fatal(err)
			}
			dst = evs
		}
		report(b)
	})
}

// captureTransport answers every request as the ingest route would,
// keeping the last request body.
type captureTransport struct{ body []byte }

func (c *captureTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	c.body = body
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"data":{"accepted":0}}`)),
		Request:    req,
	}, nil
}

// TestSubmitEventsBodyBytes: the client's append-encoder writes exactly
// the bytes encoding/json wrote for the same batch, and the scanner
// decodes them back to the same events.
func TestSubmitEventsBodyBytes(t *testing.T) {
	type wireEvent struct {
		Time  int64  `json:"time"`
		PID   uint32 `json:"pid"`
		Op    string `json:"op"`
		Block uint64 `json:"block"`
		Len   uint32 `json:"len"`
	}
	tr := &captureTransport{}
	cl := client.New("http://collector", client.WithHTTPClient(&http.Client{Transport: tr}))
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		evs := make([]blktrace.Event, 1+rng.Intn(40))
		for i := range evs {
			ln := uint32(1 + rng.Intn(math.MaxUint32))
			evs[i] = blktrace.Event{
				Time:   rng.Int63(),
				PID:    rng.Uint32(),
				Op:     blktrace.Op(rng.Intn(2)),
				Extent: blktrace.Extent{Block: rng.Uint64() % (math.MaxUint64 - uint64(ln)), Len: ln},
			}
		}
		evs[0].Time, evs[0].PID = math.MaxInt64, 0
		evs[len(evs)-1].Extent = blktrace.Extent{Block: math.MaxUint64 - 1, Len: 1}
		if _, err := cl.SubmitEvents(context.Background(), "dev0", evs); err != nil {
			t.Fatal(err)
		}
		wire := make([]wireEvent, len(evs))
		for i, ev := range evs {
			op := "read"
			if ev.Op == blktrace.OpWrite {
				op = "write"
			}
			wire[i] = wireEvent{ev.Time, ev.PID, op, ev.Extent.Block, ev.Extent.Len}
		}
		want, err := json.Marshal(map[string]any{"events": wire})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.body, want) {
			t.Fatalf("round %d: body\n got %s\nwant %s", round, tr.body, want)
		}
		got, err := decodeIngest(tr.body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("round %d: decoded %+v, want %+v", round, got, evs)
		}
	}
}

// TestIngestConcurrentPostsRoundTrip: producers posting at once through
// one client share the handler's pooled buffers; every
// device must still analyze exactly the events its producer sent, in
// order.
func TestIngestConcurrentPostsRoundTrip(t *testing.T) {
	const producers, batches, batch = 4, 20, 37
	ids := []string{"d0", "d1", "d2", "d3"}
	var mu sync.Mutex
	seen := map[string][]blktrace.Event{}
	e, err := engine.New(engine.WithDevices(ids...), engine.WithBackpressure(engine.Block),
		engine.WithAnalyzer(core.Config{ItemCapacity: 256, PairCapacity: 256}),
		engine.WithProcessHook(func(dev string, ev blktrace.Event) {
			mu.Lock()
			seen[dev] = append(seen[dev], ev)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	srv := httptest.NewServer(NewEngineHandler(e))
	defer srv.Close()
	cl := client.New(srv.URL)

	sent := make([][]blktrace.Event, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				evs := make([]blktrace.Event, batch)
				for i := range evs {
					n := b*batch + i
					evs[i] = blktrace.Event{Time: int64(n) * 1000, PID: uint32(p), Op: blktrace.Op(n % 2),
						Extent: blktrace.Extent{Block: uint64(p)<<32 | uint64(n), Len: uint32(1 + n%8)}}
				}
				if n, err := cl.SubmitEvents(context.Background(), ids[p], evs); err != nil || n != batch {
					t.Errorf("producer %d batch %d: accepted %d, err %v", p, b, n, err)
					return
				}
				sent[p] = append(sent[p], evs...)
			}
		}(p)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for p, id := range ids {
		for {
			ds, err := e.DeviceStatsFor(id)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Monitor.Events >= uint64(len(sent[p])) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d of %d events analyzed", id, ds.Monitor.Events, len(sent[p]))
			}
			time.Sleep(time.Millisecond)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for p, id := range ids {
		if !reflect.DeepEqual(seen[id], sent[p]) {
			t.Errorf("%s analyzed %d events differing from the %d its producer sent", id, len(seen[id]), len(sent[p]))
		}
	}
}
