package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"daccor/internal/blktrace"
	"daccor/internal/core"
)

// testAnalyzer builds a small analyzer with deterministic content.
func testAnalyzer(t *testing.T, txs int) *core.Analyzer {
	t.Helper()
	a, err := core.NewAnalyzer(core.Config{ItemCapacity: 32, PairCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txs; i++ {
		a.Process([]blktrace.Extent{
			{Block: uint64(i % 7), Len: 1},
			{Block: uint64(i%7) + 100, Len: 2},
		})
	}
	return a
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("Open with empty Dir should fail")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Keep: -1}); err == nil {
		t.Error("Open with negative Keep should fail")
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	s := mustOpen(t, Config{})
	a := testAnalyzer(t, 50)
	gen, err := s.Save("dev0", a)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if gen.Seq != 1 {
		t.Errorf("first generation seq = %d, want 1", gen.Seq)
	}
	got, rgen, err := s.Restore("dev0")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rgen.Seq != gen.Seq {
		t.Errorf("restored generation %d, want %d", rgen.Seq, gen.Seq)
	}
	if !reflect.DeepEqual(a.Snapshot(0), got.Snapshot(0)) {
		t.Error("restored snapshot differs from saved")
	}
}

func TestRestoreNoCheckpoint(t *testing.T) {
	s := mustOpen(t, Config{})
	_, _, err := s.Restore("never-saved")
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Restore on empty store: %v, want ErrNoCheckpoint", err)
	}
}

func TestRetentionPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir, Keep: 2})
	a := testAnalyzer(t, 10)
	for i := 0; i < 5; i++ {
		if _, err := s.Save("dev0", a); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	gens, err := s.generations("dev0")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("retained %d generations, want 2", len(gens))
	}
	if gens[0].Seq != 5 || gens[1].Seq != 4 {
		t.Errorf("retained seqs %d,%d, want 5,4", gens[0].Seq, gens[1].Seq)
	}
}

func TestSequencesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	a := testAnalyzer(t, 10)
	s1 := mustOpen(t, Config{Dir: dir})
	if _, err := s1.Save("dev0", a); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Save("dev0", a); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	gen, err := s2.Save("dev0", a)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Seq != 3 {
		t.Errorf("seq after reopen = %d, want 3", gen.Seq)
	}
}

func TestFaultHookAbortsCommit(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected")
	s := mustOpen(t, Config{Dir: dir, FaultHook: func(device string, seq uint64) error {
		if seq == 2 {
			return boom
		}
		return nil
	}})
	a := testAnalyzer(t, 10)
	if _, err := s.Save("dev0", a); err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	if _, err := s.Save("dev0", a); !errors.Is(err, boom) {
		t.Fatalf("Save 2 = %v, want injected fault", err)
	}
	// The aborted commit must leave no temp litter and keep gen 1
	// restorable.
	ents, err := os.ReadDir(filepath.Join(dir, "dev0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Errorf("temp file %q left behind after aborted commit", e.Name())
		}
	}
	_, gen, err := s.Restore("dev0")
	if err != nil || gen.Seq != 1 {
		t.Fatalf("Restore after aborted commit: gen %d err %v, want gen 1", gen.Seq, err)
	}
	// The sequence was consumed; the next save must not collide.
	if gen, err := s.Save("dev0", a); err != nil || gen.Seq != 3 {
		t.Fatalf("Save after abort: gen %d err %v, want gen 3", gen.Seq, err)
	}
}

// TestCrashMidCheckpointEveryTruncation simulates a kill-style crash at
// every possible truncation offset of the newest generation file and
// requires that Restore always falls back to the previous good
// generation (or accepts the full-length file).
func TestCrashMidCheckpointEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir, Keep: 3})
	good := testAnalyzer(t, 20)
	if _, err := s.Save("dev0", good); err != nil {
		t.Fatal(err)
	}

	// Serialize a distinct newer state to play the torn write.
	newer := testAnalyzer(t, 40)
	var buf bytes.Buffer
	if _, err := newer.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	devDir := filepath.Join(dir, "dev0")

	for cut := 0; cut <= len(full); cut++ {
		torn := filepath.Join(devDir, genName(2))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a, gen, err := s.Restore("dev0")
		if err != nil {
			t.Fatalf("cut %d: Restore failed entirely: %v", cut, err)
		}
		if cut == len(full) {
			if gen.Seq != 2 {
				t.Fatalf("full file restored gen %d, want 2", gen.Seq)
			}
			if !reflect.DeepEqual(a.Snapshot(0), newer.Snapshot(0)) {
				t.Fatal("full-length generation restored wrong state")
			}
		} else if gen.Seq == 2 {
			// A strict prefix that still parses must at least be a
			// self-consistent synopsis (the format is not self-delimiting
			// at every byte, so some prefixes are valid snapshots of a
			// smaller state — that is fine, corruption detection is
			// format-level, not content-level). Round-trip it to prove
			// the accepted state is coherent.
			var rt bytes.Buffer
			if _, err := a.WriteTo(&rt); err != nil {
				t.Fatalf("cut %d: truncated restore cannot re-save: %v", cut, err)
			}
			if _, err := core.LoadAnalyzer(&rt); err != nil {
				t.Fatalf("cut %d: truncated restore does not round-trip: %v", cut, err)
			}
		} else {
			if gen.Seq != 1 {
				t.Fatalf("cut %d: fell back to gen %d, want 1", cut, gen.Seq)
			}
			if !reflect.DeepEqual(a.Snapshot(0), good.Snapshot(0)) {
				t.Fatalf("cut %d: fallback restored wrong state", cut)
			}
		}
		if err := os.Remove(torn); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStrayTempFilesIgnoredAndSwept: a crash between temp write and
// rename leaves tmp-* files; they must not be restored, no scan of a
// live store may touch them (one may be a save in flight), and the next
// Open cleans them up.
func TestStrayTempFilesIgnoredAndSwept(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	a := testAnalyzer(t, 10)
	if _, err := s.Save("dev0", a); err != nil {
		t.Fatal(err)
	}
	devDir := filepath.Join(dir, "dev0")
	stray := filepath.Join(devDir, tmpPrefix+"123456"+ckptSuffix)
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, gen, err := s.Restore("dev0"); err != nil || gen.Seq != 1 {
		t.Fatalf("Restore with stray temp: gen %d err %v", gen.Seq, err)
	}
	if _, err := s.Save("dev0", a); err != nil { // prune scans too
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("a scan of the open store removed a temp file: %v", err)
	}
	s = mustOpen(t, Config{Dir: dir})
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stray temp file not swept by Open (stat err %v)", err)
	}
	if _, gen, err := s.Restore("dev0"); err != nil || gen.Seq != 2 {
		t.Fatalf("Restore after reopen: gen %d err %v", gen.Seq, err)
	}
}

// TestRestoreBesideInFlightSave parks a save between its temp file's
// close and the rename (the FaultHook's position) and reads the same
// device's generations every way a restore does. None of them may take
// the parked temp file for a crash leftover: the save must commit once
// released, and its generation must load.
func TestRestoreBesideInFlightSave(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	s := mustOpen(t, Config{Dir: t.TempDir(), FaultHook: func(device string, seq uint64) error {
		if seq == 2 {
			close(parked)
			<-release
		}
		return nil
	}})
	a := testAnalyzer(t, 10)
	if _, err := s.Save("dev0", a); err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	type saved struct {
		gen Generation
		err error
	}
	done := make(chan saved, 1)
	go func() {
		gen, err := s.Save("dev0", a)
		done <- saved{gen, err}
	}()
	<-parked
	if g, ok := s.Latest("dev0"); !ok || g.Seq != 1 {
		t.Errorf("Latest beside the parked save = gen %d ok %v, want gen 1", g.Seq, ok)
	}
	if _, gen, err := s.Restore("dev0"); err != nil || gen.Seq != 1 {
		t.Errorf("Restore beside the parked save: gen %d err %v, want gen 1", gen.Seq, err)
	}
	close(release)
	if r := <-done; r.err != nil || r.gen.Seq != 2 {
		t.Fatalf("parked save: gen %d err %v, want gen 2 committed", r.gen.Seq, r.err)
	}
	if _, gen, err := s.Restore("dev0"); err != nil || gen.Seq != 2 {
		t.Fatalf("Restore after the save committed: gen %d err %v, want gen 2", gen.Seq, err)
	}
}

func TestDeviceDirEscaping(t *testing.T) {
	cases := map[string]string{
		"dev0":     "dev0",
		"a/b":      "a%2Fb",
		"..":       "%..",
		".":        "%.",
		"":         "%",
		"A_b-c.9":  "A_b-c.9",
		"vol 3":    "vol%203",
		"x%y":      "x%25y",
		"naïve":    "na%C3%AFve",
		"..secret": "..secret",
	}
	for in, want := range cases {
		if got := deviceDir(in); got != want {
			t.Errorf("deviceDir(%q) = %q, want %q", in, got, want)
		}
	}
	// Distinct IDs must never collide.
	if deviceDir("a/b") == deviceDir("a%2Fb") {
		t.Error("escaping collides for a/b vs its escaped form")
	}
	// An ID whose escape would pass the file name limit is hashed, and
	// one just inside the limit is not.
	fits, long := strings.Repeat("a", maxDirName), strings.Repeat("/", 86)
	if got := deviceDir(fits); got != fits {
		t.Errorf("deviceDir of a %d-byte name = %q, want it unchanged", len(fits), got)
	}
	for _, id := range []string{fits + "b", long, long + "a"} {
		got := deviceDir(id)
		if len(got) > maxDirName || !strings.HasPrefix(got, "%sha256-") {
			t.Errorf("deviceDir of a %d-byte id = %q, want a hashed name", len(id), got)
		}
	}
	if deviceDir(long) == deviceDir(long+"a") {
		t.Error("hashed names collide")
	}
}

// TestLongDeviceIDSavesAndRestores saves and restores a device whose
// escaped ID is longer than a file name may be.
func TestLongDeviceIDSavesAndRestores(t *testing.T) {
	s := mustOpen(t, Config{})
	id := strings.Repeat("/", 256)
	a := testAnalyzer(t, 50)
	if _, err := s.Save(id, a); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, _, err := s.Restore(id)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !reflect.DeepEqual(a.Snapshot(0), got.Snapshot(0)) {
		t.Error("restored snapshot differs from saved")
	}
}

func TestLatest(t *testing.T) {
	s := mustOpen(t, Config{})
	if _, ok := s.Latest("dev0"); ok {
		t.Error("Latest on empty device should report ok=false")
	}
	a := testAnalyzer(t, 5)
	if _, err := s.Save("dev0", a); err != nil {
		t.Fatal(err)
	}
	g, ok := s.Latest("dev0")
	if !ok || g.Seq != 1 {
		t.Errorf("Latest = (%v, %v), want seq 1", g, ok)
	}
}

// TestRestoreSkipsGarbageGeneration: a generation full of garbage (not
// merely truncated) is skipped in favour of an older good one.
func TestRestoreSkipsGarbageGeneration(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	a := testAnalyzer(t, 10)
	if _, err := s.Save("dev0", a); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "dev0", genName(7))
	if err := os.WriteFile(bad, bytes.Repeat([]byte{0xAB}, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	got, gen, err := s.Restore("dev0")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if gen.Seq != 1 {
		t.Errorf("restored gen %d, want fallback to 1", gen.Seq)
	}
	if !reflect.DeepEqual(a.Snapshot(0), got.Snapshot(0)) {
		t.Error("fallback restored wrong state")
	}
}

// TestRestoreWithArbitraryPayload: RestoreWith gives non-Analyzer
// payloads the same newest-first, skip-corrupt walk that Restore has.
func TestRestoreWithArbitraryPayload(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	payload := []byte("fleet-state-v1")
	if _, err := s.Save("agg", writerToFunc(func(w io.Writer) (int64, error) {
		n, err := w.Write(payload)
		return int64(n), err
	})); err != nil {
		t.Fatal(err)
	}
	// A newer, torn generation must be skipped by the load callback.
	bad := filepath.Join(dir, "agg", genName(9))
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []byte
	gen, err := s.RestoreWith("agg", func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, payload) {
			return errors.New("not my payload")
		}
		got = b
		return nil
	})
	if err != nil {
		t.Fatalf("RestoreWith: %v", err)
	}
	if gen.Seq != 1 {
		t.Errorf("restored gen %d, want fallback to 1", gen.Seq)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("restored %q, want %q", got, payload)
	}
	if _, err := s.RestoreWith("absent", func(io.Reader) error { return nil }); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("absent device: got %v, want ErrNoCheckpoint", err)
	}
}

type writerToFunc func(w io.Writer) (int64, error)

func (f writerToFunc) WriteTo(w io.Writer) (int64, error) { return f(w) }
