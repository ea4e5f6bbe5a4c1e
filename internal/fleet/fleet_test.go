package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"daccor/internal/blktrace"
	"daccor/internal/checkpoint"
	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/monitor"
	"daccor/internal/obs"
)

func sampleSnapshot() core.Snapshot {
	a := blktrace.Extent{Block: 8, Len: 1}
	b := blktrace.Extent{Block: 16, Len: 2}
	c := blktrace.Extent{Block: 32, Len: 1}
	return core.Snapshot{
		Pairs: []core.PairCount{
			{Pair: blktrace.MakePair(a, b), Count: 9, Tier: core.Tier2},
			{Pair: blktrace.MakePair(b, c), Count: 3, Tier: core.Tier1},
		},
		Items: []core.ItemCount{
			{Extent: a, Count: 12, Tier: core.Tier2},
			{Extent: b, Count: 10, Tier: core.Tier2},
			{Extent: c, Count: 3, Tier: core.Tier1},
		},
	}
}

func TestFrameWireRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	next := sampleSnapshot()
	next.Items[0].Count = 20
	f := Frame{
		Collector: "host-a",
		Seq:       42,
		Sections: []Section{
			{Device: "vol0", Kind: SectionFull, Epoch: 7, Snap: snap},
			{Device: "vol1", Kind: SectionDelta, BaseEpoch: 7, Epoch: 9, Delta: core.DiffSnapshots(snap, next)},
			{Device: "vol2", Kind: SectionRemove},
		},
	}
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Collector != f.Collector || got.Seq != f.Seq || len(got.Sections) != len(f.Sections) {
		t.Fatalf("frame header mismatch: %+v", got)
	}
	for i, s := range got.Sections {
		w := f.Sections[i]
		if s.Device != w.Device || s.Kind != w.Kind || s.BaseEpoch != w.BaseEpoch || s.Epoch != w.Epoch {
			t.Fatalf("section %d header mismatch: got %+v want %+v", i, s, w)
		}
	}
	if !reflect.DeepEqual(got.Sections[0].Snap, snap) {
		t.Fatal("full section snapshot mismatch")
	}
	// The delta must patch the same base to the same result.
	want, err := f.Sections[1].Delta.Apply(snap)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.Sections[1].Delta.Apply(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatal("delta section does not apply identically after roundtrip")
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	snap := sampleSnapshot()
	valid := func(f Frame) []byte {
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := valid(Frame{Collector: "c", Seq: 1, Sections: []Section{
		{Device: "vol0", Kind: SectionFull, Epoch: 3, Snap: snap},
	}})

	// Truncation at every prefix errors, never panics.
	for cut := 0; cut < len(base); cut++ {
		if _, err := DecodeFrame(bytes.NewReader(base[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing bytes are a framing bug, not padding.
	if _, err := DecodeFrame(bytes.NewReader(append(append([]byte{}, base...), 0))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("trailing byte: got %v, want ErrBadFrame", err)
	}
	// Wrong magic.
	bad := append([]byte{}, base...)
	bad[0] = 'X'
	if _, err := DecodeFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: got %v, want ErrBadFrame", err)
	}
	// Duplicate device sections.
	dup := valid(Frame{Collector: "c", Seq: 1, Sections: []Section{
		{Device: "vol0", Kind: SectionFull, Epoch: 3, Snap: snap},
		{Device: "vol0", Kind: SectionRemove},
	}})
	if _, err := DecodeFrame(bytes.NewReader(dup)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("duplicate device: got %v, want ErrBadFrame", err)
	}
	// Epoch regression inside a delta section must error: collector
	// epochs are monotone, so Epoch <= BaseEpoch is corruption.
	reg := valid(Frame{Collector: "c", Seq: 1, Sections: []Section{
		{Device: "vol0", Kind: SectionDelta, BaseEpoch: 9, Epoch: 9,
			Delta: core.DiffSnapshots(core.Snapshot{}, snap)},
	}})
	if _, err := DecodeFrame(bytes.NewReader(reg)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("epoch regression: got %v, want ErrBadFrame", err)
	}
}

// TestSyncDeltaFlow is the tentpole's happy path: first rounds ship
// full snapshots, steady-state rounds ship deltas, the aggregator's
// merged mirror stays DeepEqual to the single-process merge, and the
// byte counters prove deltas are materially cheaper than fulls on an
// incremental workload.
func TestSyncDeltaFlow(t *testing.T) {
	e0 := newTestEngine(t, "vol0", "vol1")
	e1 := newTestEngine(t, "vol2")
	defer e0.Stop()
	defer e1.Stop()
	tf := newTestFleet(t, Config{}, e0, e1)

	// A substantial initial corpus over a wide key universe, then the
	// first sync: all fulls.
	feedKeys(t, e0, "vol0", 4000, 1, 512)
	feedKeys(t, e0, "vol1", 4000, 2, 512)
	feedKeys(t, e1, "vol2", 4000, 3, 512)
	reps := tf.syncAll(t)
	if reps[0].Fulls != 2 || reps[1].Fulls != 1 {
		t.Fatalf("first rounds not full syncs: %+v", reps)
	}
	requireConverged(t, tf.agg, e0, e1)

	// Incremental rounds: small feeds over a few hot keys, delta syncs
	// only.
	deltaRounds := 0
	for i := 0; i < 5; i++ {
		feedKeys(t, e0, "vol0", 40, 1, 4)
		feedKeys(t, e1, "vol2", 40, 3, 4)
		reps = tf.syncAll(t)
		for _, r := range reps {
			if r.Fulls > 0 {
				t.Fatalf("incremental round %d shipped a full snapshot: %+v", i, r)
			}
			deltaRounds += r.Deltas
		}
	}
	if deltaRounds == 0 {
		t.Fatal("no delta sections shipped on incremental rounds")
	}
	requireConverged(t, tf.agg, e0, e1)

	// Byte accounting: deltas must be materially cheaper per round.
	for i, c := range tf.clients {
		st := c.Stats()
		if st.FullBytes == 0 || st.DeltaBytes == 0 {
			t.Fatalf("client %d: byte counters not populated: %+v", i, st)
		}
		// 5 (client 0) or fewer delta-bearing rounds together must cost
		// less than the one full round: per-round deltas are far
		// smaller than the snapshot they patch.
		if st.DeltaBytes >= st.FullBytes {
			t.Fatalf("client %d: delta rounds (%d B total) not cheaper than full rounds (%d B)",
				i, st.DeltaBytes, st.FullBytes)
		}
	}

	// An idle round is a heartbeat: no sections, still acked.
	rep, err := tf.clients[0].SyncNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sections != 0 {
		t.Fatalf("idle round shipped %d sections", rep.Sections)
	}

	// Every round timed its frame build: one full round, five
	// incremental ones, and for client 0 the heartbeat.
	for i, want := range []uint64{7, 6} {
		build := tf.clients[i].cfg.Engine.Metrics().Histogram(MetricSyncBuild, "", obs.LatencyBuckets())
		if build.Count() != want || build.Sum() <= 0 {
			t.Fatalf("client %d: %s observed %d builds (%.6fs in all), want %d", i, MetricSyncBuild, build.Count(), build.Sum(), want)
		}
	}
}

// TestDeviceIDLengthBound pins the device ID bound at registration: an
// ID one byte longer than a sync frame carries is refused, and one of
// exactly that length syncs to the aggregator and registers with a
// checkpoint store attached.
func TestDeviceIDLengthBound(t *testing.T) {
	longest := strings.Repeat("d", engine.MaxDeviceID)
	e := newTestEngine(t, "ok")
	defer e.Stop()
	if err := e.Register(longest + "d"); !errors.Is(err, engine.ErrInvalidDeviceID) {
		t.Fatalf("Register of a %d-byte id = %v, want ErrInvalidDeviceID", len(longest)+1, err)
	}
	if err := e.Register(longest); err != nil {
		t.Fatalf("Register of a %d-byte id: %v", len(longest), err)
	}
	tf := newTestFleet(t, Config{}, e)
	feed(t, e, "ok", 200, 1)
	feed(t, e, longest, 200, 2)
	tf.syncAll(t)
	if got := tf.agg.Devices(); !slices.Contains(got, longest) || len(got) != 2 {
		t.Fatalf("aggregator mirrors %d devices, want both of the collector's", len(got))
	}
	requireConverged(t, tf.agg, e)

	store, err := checkpoint.Open(checkpoint.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ec, err := engine.New(
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(10 * time.Millisecond)}),
		engine.WithAnalyzer(core.Config{ItemCapacity: 64, PairCapacity: 64}),
		engine.WithCheckpoints(store, time.Hour),
		engine.WithDevices(longest),
	)
	if err != nil {
		t.Fatalf("engine with a checkpoint store and a %d-byte device id: %v", len(longest), err)
	}
	feed(t, ec, longest, 50, 3)
	ec.Stop()
	if _, ok := store.Latest(longest); !ok {
		t.Fatal("no checkpoint written for the longest device id")
	}
}

// TestSyncFullLabelsEpochBeforeCapture is the stress test for the
// order a section's epoch and content are read in. A writer works the
// devices while a first-contact round (all fulls) is built, and falls
// silent on its own at an arbitrary moment; once its last events are
// analyzed one more round runs, and the mirrors must then be the
// engine's exports. A full section labelled with an epoch newer than
// its capture breaks exactly this: the device that went quiet between
// the two reads looks unchanged to the next round and its mirror keeps
// the older state until the device sees another event.
func TestSyncFullLabelsEpochBeforeCapture(t *testing.T) {
	devices := []string{"vol0", "vol1", "vol2", "vol3"}
	e := newTestEngine(t, devices...)
	defer e.Stop()
	// Tables large enough that an export takes a while after its
	// capture: that is the window in which the epoch can run ahead.
	submitted := make(map[string]uint64)
	for i, dev := range devices {
		feedKeys(t, e, dev, 4000, uint64(i), 512)
		submitted[dev] = 4000
	}
	rng := rand.New(rand.NewSource(41))
	clock := int64(time.Hour)
	for trial := 0; trial < 60; trial++ {
		// A new aggregator and client: every section of the first round
		// is a first-contact full.
		tf := newTestFleet(t, Config{}, e)
		quiet := time.Duration(rng.Intn(4000)) * time.Microsecond
		writer := make(chan error, 1)
		go func() {
			deadline := time.Now().Add(quiet)
			for i := 0; time.Now().Before(deadline); i++ {
				dev := devices[i%len(devices)]
				for j := 0; j < 4; j++ {
					clock += int64(time.Millisecond)
					ev := blktrace.Event{Time: clock, Op: blktrace.OpRead,
						Extent: blktrace.Extent{Block: uint64(i%len(devices))*65536 + uint64(1+(i+j)%512)*8, Len: 1}}
					if err := e.Submit(dev, ev); err != nil {
						writer <- err
						return
					}
					submitted[dev]++
				}
				clock += int64(50 * time.Millisecond) // close the transaction
			}
			writer <- nil
		}()
		if _, err := tf.clients[0].SyncNow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := <-writer; err != nil {
			t.Fatal(err)
		}
		for _, dev := range devices {
			waitDrained(t, e, dev, submitted[dev])
		}
		if _, err := tf.clients[0].SyncNow(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, dev := range devices {
			want, err := e.Snapshot(dev, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := tf.agg.DeviceSnapshot(dev, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s is stale on the aggregator one round after it went quiet: %d/%d pairs/items mirrored, the engine exports %d/%d",
					trial, dev, len(got.Pairs), len(got.Items), len(want.Pairs), len(want.Items))
			}
		}
		tf.srv.Close()
	}
}

// TestSyncAfterReregister pins that one fleet round after a device is
// unregistered and registered again under the same ID converges the
// aggregator's mirror to the new device — whether the new device is fed
// to fewer, as many or more epochs than the old one had when its state
// was acked, which with epochs that restarted at zero is a delta
// section that would fail to decode, no section at all, or a delta.
func TestSyncAfterReregister(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new int
	}{
		{"below", 6, 3},
		{"on", 6, 6},
		{"above", 6, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, "vol0")
			defer e.Stop()
			tf := newTestFleet(t, Config{}, e)
			feedEpochs(t, e, "vol0", tc.old, 1)
			tf.syncAll(t)
			requireConverged(t, tf.agg, e)

			if err := e.Unregister("vol0"); err != nil {
				t.Fatal(err)
			}
			if err := e.Register("vol0"); err != nil {
				t.Fatal(err)
			}
			feedEpochs(t, e, "vol0", tc.new, 2)
			rep := tf.syncAll(t)[0]
			if rep.Sections != 1 || rep.Applied != 1 {
				t.Fatalf("round after re-registration: %+v, want one section applied", rep)
			}
			requireConverged(t, tf.agg, e)
		})
	}
}

// TestSyncRoundFitsBodyLimit pins that a sync round fits the
// aggregator's body limit: with the limit lowered below what one round
// of many devices carries, the round goes out as several frames, each
// within the limit and no more of them than ⌈bytes / limit⌉ + 1, and
// every device converges. A device whose section alone exceeds the
// limit is left out, counted and reported, round after round, while the
// other devices keep syncing.
func TestSyncRoundFitsBodyLimit(t *testing.T) {
	const limit = 8 << 10
	syncBodyLimit = limit
	t.Cleanup(func() { syncBodyLimit = MaxSyncBody })

	devices := make([]string, 24)
	for i := range devices {
		devices[i] = fmt.Sprintf("vol%02d", i)
	}
	e := newTestEngine(t, devices...)
	defer e.Stop()
	tf := newTestFleet(t, Config{}, e)
	c := tf.clients[0]
	var posts []int64
	c.http = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		posts = append(posts, req.ContentLength)
		return http.DefaultTransport.RoundTrip(req)
	})}
	round := func() (RoundReport, error) {
		t.Helper()
		posts = posts[:0]
		rep, err := c.SyncNow(context.Background())
		for i, n := range posts {
			if n > limit {
				t.Fatalf("POST %d of the round carries %d bytes, over the %d-byte limit", i, n, limit)
			}
		}
		if max := (rep.Bytes+limit-1)/limit + 1; len(posts) > max {
			t.Fatalf("%d bytes went out in %d POSTs, want at most %d", rep.Bytes, len(posts), max)
		}
		return rep, err
	}

	for i, id := range devices {
		feedKeys(t, e, id, 400, uint64(i+1), 16)
	}
	rep, err := round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fulls != len(devices) || rep.Applied != len(devices) || rep.Skipped != 0 || len(posts) < 4 {
		t.Fatalf("first round: %+v in %d POSTs, want every device's full applied across several frames", rep, len(posts))
	}
	t.Logf("first round: %d bytes in %d POSTs", rep.Bytes, len(posts))
	requireConverged(t, tf.agg, e)

	// A device whose full section cannot fit one frame.
	if err := e.Register("wide"); err != nil {
		t.Fatal(err)
	}
	feedKeys(t, e, "wide", 4000, 99, 512)
	for r := 0; r < 2; r++ {
		feedKeys(t, e, devices[r], 40, uint64(r+1), 4)
		rep, err = round()
		if err == nil || !strings.Contains(err.Error(), `"wide"`) {
			t.Fatalf("round %d with an oversized section: error %v, want it to name the device", r, err)
		}
		if rep.Skipped != 1 || rep.Applied != rep.Sections || rep.Deltas != 1 {
			t.Fatalf("round %d: %+v, want the one delta applied and the oversized section skipped", r, rep)
		}
	}
	if got := e.Metrics().Counter(MetricSyncSkipped, "").Value(); got != 2 {
		t.Fatalf("%s = %d after two rounds that skipped one section, want 2", MetricSyncSkipped, got)
	}
	if got := tf.agg.Devices(); !reflect.DeepEqual(got, devices) {
		t.Fatalf("aggregator mirrors %v, want the devices that fit (%v)", got, devices)
	}
	for _, id := range devices {
		want, err := e.Snapshot(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := tf.agg.DeviceSnapshot(id, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("mirror of %s diverged from its device", id)
		}
	}
}

// TestStalenessServing: a partitioned collector degrades, then fails;
// reads keep answering 200 with the staleness block telling the truth
// the whole way down.
func TestStalenessServing(t *testing.T) {
	e := newTestEngine(t, "vol0")
	defer e.Stop()
	tf := newTestFleet(t, Config{Lease: 10 * time.Second, FailAfter: 60 * time.Second}, e)

	feed(t, e, "vol0", 500, 1)
	tf.syncAll(t)

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(tf.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Data map[string]any `json:"data"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, env.Data
	}
	fleetStatus := func(data map[string]any) string {
		fl, _ := data["fleet"].(map[string]any)
		s, _ := fl["status"].(string)
		return s
	}

	code, data := get("/v1/snapshot?support=1")
	if code != 200 || fleetStatus(data) != "ok" {
		t.Fatalf("fresh read: code %d, status %q", code, fleetStatus(data))
	}
	if n, _ := data["totalPairs"].(float64); n == 0 {
		t.Fatal("fresh read served no pairs")
	}

	// Partition: the collector goes silent past its lease.
	tf.clk.Advance(15 * time.Second)
	code, data = get("/v1/snapshot?support=1")
	if code != 200 {
		t.Fatalf("degraded read answered %d, want 200", code)
	}
	if fleetStatus(data) != "degraded" {
		t.Fatalf("degraded read status %q", fleetStatus(data))
	}
	if n, _ := data["totalPairs"].(float64); n == 0 {
		t.Fatal("degraded read must keep serving the stale mirror")
	}
	fl := data["fleet"].(map[string]any)
	if age, _ := fl["maxSyncAgeSeconds"].(float64); age < 14 {
		t.Fatalf("staleness not reported: maxSyncAgeSeconds = %v", age)
	}

	// Prolonged silence: failed, excluded from the merge, still 200.
	tf.clk.Advance(60 * time.Second)
	code, data = get("/v1/snapshot?support=1")
	if code != 200 {
		t.Fatalf("failed read answered %d, want 200", code)
	}
	if fleetStatus(data) != "failed" {
		t.Fatalf("failed read status %q", fleetStatus(data))
	}
	if n, _ := data["totalPairs"].(float64); n != 0 {
		t.Fatal("failed collector's mirror must drop out of the merge")
	}

	// The collector comes back: one sync restores everything.
	tf.syncAll(t)
	code, data = get("/v1/snapshot?support=1")
	if code != 200 || fleetStatus(data) != "ok" {
		t.Fatalf("healed read: code %d, status %q", code, fleetStatus(data))
	}
	requireConverged(t, tf.agg, e)
}

func TestPersistRoundTrip(t *testing.T) {
	e := newTestEngine(t, "vol0", "vol1")
	defer e.Stop()
	tf := newTestFleet(t, Config{}, e)
	feed(t, e, "vol0", 1000, 1)
	feed(t, e, "vol1", 800, 2)
	tf.syncAll(t)

	var buf bytes.Buffer
	if _, err := tf.agg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	restored := newAggregatorAt(Config{}, tf.clk)
	if err := restored.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.MergedSnapshot(0), tf.agg.MergedSnapshot(0)) {
		t.Fatal("restored aggregator serves a different merge")
	}
	cs, want := restored.Collectors(), tf.agg.Collectors()
	if !reflect.DeepEqual(cs[0].ID, want[0].ID) || cs[0].Devices != want[0].Devices {
		t.Fatalf("restored collector status mismatch: %+v vs %+v", cs, want)
	}

	// Torn payloads must error without replacing the mirrors.
	state := buf.Bytes()
	for _, cut := range []int{0, 1, 4, 6, 10, len(state) / 2, len(state) - 1} {
		fresh := NewAggregator(Config{})
		if err := fresh.LoadState(bytes.NewReader(state[:cut])); !errors.Is(err, ErrBadState) {
			t.Fatalf("truncation at %d: got %v, want ErrBadState", cut, err)
		}
		if len(fresh.Devices()) != 0 {
			t.Fatalf("truncation at %d left partial mirrors behind", cut)
		}
	}
}

// TestWatchStream: the fleet watch speaks the collector's wire form —
// `event: rules` frames whose `id:` is the cursor the body repeats as
// "epoch" — with the staleness block stamped into every delivery; it
// delivers the current state, pushes on version advance, and
// terminates with an end event on Close. (The delivery loop itself is
// internal/api's; internal/realtime runs its watch suite against both
// daemons.)
func TestWatchStream(t *testing.T) {
	e := newTestEngine(t, "vol0")
	defer e.Stop()
	tf := newTestFleet(t, Config{}, e)
	feed(t, e, "vol0", 500, 1)
	tf.syncAll(t)

	resp, err := http.Get(tf.srv.URL + "/v1/watch?support=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	// nextFrame reads one SSE frame into its fields.
	nextFrame := func() map[string]string {
		t.Helper()
		frame := map[string]string{}
		for sc.Scan() {
			line := sc.Text()
			if line == "" && len(frame) > 0 {
				return frame
			}
			if k, v, ok := strings.Cut(line, ": "); ok && k != "" {
				frame[k] = v
			}
		}
		t.Fatalf("stream closed mid-frame: %v", sc.Err())
		return nil
	}
	nextState := func() (id string, totalPairs float64) {
		t.Helper()
		frame := nextFrame()
		var body map[string]any
		if err := json.Unmarshal([]byte(frame["data"]), &body); err != nil {
			t.Fatalf("frame %v: %v", frame, err)
		}
		fl, _ := body["fleet"].(map[string]any)
		if frame["event"] != "rules" || frame["id"] == "" || body["epoch"] != frame["id"] || fl["status"] != "ok" {
			t.Fatalf("state frame = %v, want event rules with id = body epoch and data.fleet", frame)
		}
		totalPairs, _ = body["totalPairs"].(float64)
		return frame["id"], totalPairs
	}

	first, pairs := nextState()
	if pairs == 0 {
		t.Fatal("initial state served no pairs")
	}
	// A new sync bumps the version and pushes a fresh state.
	feed(t, e, "vol0", 100, 1)
	tf.syncAll(t)
	if second, _ := nextState(); second == first {
		t.Fatalf("pushed state repeats cursor %q", first)
	}

	tf.agg.Close()
	if end := nextFrame(); end["event"] != "end" || end["data"] != `{"reason":"`+ErrCodeClosed+`"}` {
		t.Fatalf("terminal frame = %v", end)
	}
}

// TestETagCoversFailedSet: a collector crossing FailAfter changes the
// merge without a version bump, so the ETag cannot be the version
// alone — a client revalidating after the failure must get a 200
// without the failed collector's pairs, not a 304 that keeps it serving
// them. The same goes for a device whose only mirror was that
// collector's: it is gone (404), not unchanged.
func TestETagCoversFailedSet(t *testing.T) {
	e0, e1 := newTestEngine(t, "vol0"), newTestEngine(t, "vol1")
	defer e0.Stop()
	defer e1.Stop()
	tf := newTestFleet(t, Config{Lease: 10 * time.Second, FailAfter: 60 * time.Second}, e0, e1)
	feed(t, e0, "vol0", 500, 1)
	feed(t, e1, "vol1", 500, 2)
	tf.syncAll(t)

	get := func(path, inm string) (int, string, float64) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, tf.srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Data struct {
				TotalPairs float64 `json:"totalPairs"`
			} `json:"data"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, resp.Header.Get("ETag"), env.Data.TotalPairs
	}

	_, fleetTag, both := get("/v1/snapshot?support=1", "")
	_, devTag, _ := get("/v1/devices/vol1/snapshot?support=1", "")
	if code, _, _ := get("/v1/snapshot?support=1", fleetTag); code != http.StatusNotModified {
		t.Fatalf("quiescent revalidation = %d, want 304", code)
	}

	// c1 goes silent past FailAfter while c0 keeps its lease with a
	// heartbeat: no mirror mutates, so the version does not move.
	version, _ := tf.agg.cursor("")
	tf.clk.Advance(55 * time.Second)
	if _, err := tf.clients[0].SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	tf.clk.Advance(10 * time.Second)
	if v, _ := tf.agg.cursor(""); v != version {
		t.Fatal("test premise broken: the version moved")
	}

	code, tag, remaining := get("/v1/snapshot?support=1", fleetTag)
	if code != http.StatusOK || tag == fleetTag {
		t.Fatalf("revalidation after a collector failed = %d (ETag %s), want 200 under a new tag", code, tag)
	}
	if remaining == 0 || remaining >= both {
		t.Fatalf("merged view serves %v pairs after the failure, was %v: the failed collector's pairs must be gone", remaining, both)
	}
	if code, _, _ := get("/v1/devices/vol1/snapshot?support=1", devTag); code != http.StatusNotFound {
		t.Fatalf("failed collector's device revalidated as %d, want 404", code)
	}

	// The collector returns with nothing new to say: its bare heartbeat
	// must still move the cursor back, because the merge changed again.
	if _, err := tf.clients[1].SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _, healed := get("/v1/snapshot?support=1", tag); code != http.StatusOK || healed != both {
		t.Fatalf("revalidation after the collector returned = %d with %v pairs, want 200 with %v", code, healed, both)
	}
}

// TestSyncAfterAggregatorClose: a closed aggregator answers 503 and
// the client reports the failure without wedging.
func TestSyncAfterAggregatorClose(t *testing.T) {
	e := newTestEngine(t, "vol0")
	defer e.Stop()
	tf := newTestFleet(t, Config{}, e)
	feed(t, e, "vol0", 100, 1)
	tf.syncAll(t)
	tf.agg.Close()
	if _, err := tf.clients[0].SyncNow(context.Background()); err == nil {
		t.Fatal("sync against closed aggregator succeeded")
	}
}

// TestFilterSupport pins the suffix-cut filter against the obvious
// map-based implementation.
func TestFilterSupport(t *testing.T) {
	s := sampleSnapshot()
	got := s.FilterSupport(4)
	if len(got.Pairs) != 1 || got.Pairs[0].Count != 9 {
		t.Fatalf("pairs: %+v", got.Pairs)
	}
	if len(got.Items) != 2 {
		t.Fatalf("items: %+v", got.Items)
	}
	all := s.FilterSupport(1)
	if !reflect.DeepEqual(all, s) {
		t.Fatal("support 1 must keep everything")
	}
	none := s.FilterSupport(1000)
	if none.Pairs != nil || none.Items != nil {
		t.Fatalf("support 1000 must empty (nil) the snapshot: %+v", none)
	}
}

// TestRetransmitAck: re-delivering an applied frame must not mutate
// mirrors and must reproduce the lost acks.
func TestRetransmitAck(t *testing.T) {
	a := NewAggregator(Config{})
	snap := sampleSnapshot()
	f := Frame{Collector: "c0", Seq: 1, Sections: []Section{
		{Device: "vol0", Kind: SectionFull, Epoch: 5, Snap: snap},
	}}
	res1, err := a.Apply(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := a.cursor("")
	res2, err := a.Apply(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := a.cursor(""); again != v {
		t.Fatal("retransmit mutated the mirrors")
	}
	if !reflect.DeepEqual(res1.Acks, res2.Acks) {
		t.Fatalf("retransmit acks differ: %+v vs %+v", res1.Acks, res2.Acks)
	}
	if fmt.Sprint(res2.Acks[0].Action) != AckApplied {
		t.Fatalf("retransmit ack action %q", res2.Acks[0].Action)
	}
}
