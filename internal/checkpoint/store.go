// Package checkpoint persists per-device synopsis snapshots so a
// long-running characterizer survives crashes without paying the §V.1
// cold-start transient again. A Store manages a directory of
// generations per device:
//
//	<dir>/<device>/ckpt-<seq>.dsyn
//
// Every save is crash-safe: the snapshot is written to a temporary
// file in the same directory, fsynced, atomically renamed into place,
// and the directory itself is fsynced so the rename survives a power
// cut. The last Keep generations are retained; Restore walks them
// newest-first and falls back to an older generation when the newest
// is truncated or corrupt (the expected leftovers of a crash mid-save
// are a stray temp file, which is ignored and removed by the next Open,
// or a torn rename, which the fallback skips).
//
// The worst case after a crash is therefore losing the events since
// the last completed checkpoint — one checkpoint interval — never the
// whole synopsis.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"daccor/internal/core"
)

// DefaultKeep is the number of checkpoint generations retained per
// device when Config.Keep is zero. More than one generation is the
// point: the newest can always be a torn write.
const DefaultKeep = 3

// ErrNoCheckpoint is returned by Restore when no generation of the
// device's checkpoint can be loaded — either none was ever written or
// every retained generation is corrupt.
var ErrNoCheckpoint = errors.New("checkpoint: no restorable checkpoint")

// Config configures a Store.
type Config struct {
	// Dir is the root directory; each device gets a subdirectory.
	// Created (with parents) if missing.
	Dir string
	// Keep is how many generations to retain per device (default
	// DefaultKeep, minimum 1).
	Keep int
	// FaultHook, when non-nil, runs after a generation's temp file has
	// been written and synced but before it is renamed into place; a
	// non-nil return aborts the commit and fails the Save. It exists
	// for fault-injection tests (simulated full disks, crashes between
	// write and rename) and must be nil in production use.
	FaultHook func(device string, seq uint64) error
}

// Store manages checkpoint generations under one directory. All
// methods are safe for concurrent use; saves for the same device are
// serialized by the caller (the engine checkpoints each device from
// its own worker).
type Store struct {
	dir       string
	keep      int
	faultHook func(device string, seq uint64) error

	mu   sync.Mutex
	next map[string]uint64 // per device, next generation sequence
}

// Open creates (if needed) the root directory, removes the temp files
// interrupted saves of an earlier process left in it, and returns a
// store. A directory belongs to one open Store at a time: a second Open
// would take a save the first has in flight for such a leftover.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("checkpoint: Dir must be non-empty")
	}
	if cfg.Keep < 0 {
		return nil, fmt.Errorf("checkpoint: Keep must be >= 0 (got %d)", cfg.Keep)
	}
	if cfg.Keep == 0 {
		cfg.Keep = DefaultKeep
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	if err := sweepTemps(cfg.Dir); err != nil {
		return nil, fmt.Errorf("checkpoint: sweep temp files: %w", err)
	}
	return &Store{
		dir:       cfg.Dir,
		keep:      cfg.Keep,
		faultHook: cfg.FaultHook,
		next:      make(map[string]uint64),
	}, nil
}

// sweepTemps removes every device directory's temp files: leftovers of
// a crash between temp write and rename, never committed, so garbage.
// It runs only before the store exists — once saves can be in flight a
// temp file may be one of theirs, about to be renamed into place.
func sweepTemps(root string) error {
	devices, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, d := range devices {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(root, d.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), tmpPrefix) {
				// Best effort: a leftover that cannot be removed is never
				// read as a generation, it only wastes its bytes.
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Generation identifies one saved checkpoint.
type Generation struct {
	// Seq is the monotonically increasing per-device sequence number.
	Seq uint64
	// Time is the file's modification time (commit time for saves).
	Time time.Time
}

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".dsyn"
	tmpPrefix  = "tmp-"
)

// maxDirName is the longest file name common filesystems take
// (NAME_MAX).
const maxDirName = 255

// deviceDir maps a device ID onto a filesystem-safe subdirectory name:
// letters, digits, '.', '_' and '-' pass through, every other byte is
// %XX-escaped (so distinct IDs cannot collide), and the escape also
// covers "." / ".." and empty IDs. A name the escape makes longer than
// maxDirName is "%sha256-" and the ID's SHA-256 in hex instead, which
// no escaped name can be (an escape's '%' is followed by an upper-case
// hex digit, a '.' or nothing).
func deviceDir(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	out := b.String()
	switch {
	case out == "" || out == "." || out == "..":
		return "%" + out
	case len(out) > maxDirName:
		sum := sha256.Sum256([]byte(id))
		return "%sha256-" + hex.EncodeToString(sum[:])
	}
	return out
}

func genName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix)
}

// parseGen extracts the sequence number from a generation file name.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	mid := name[len(ckptPrefix) : len(name)-len(ckptSuffix)]
	if len(mid) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// generations lists a device's generation files sorted newest-first.
// Temp files are not generations and are left alone: one seen here may
// belong to a save in flight.
func (s *Store) generations(device string) ([]Generation, error) {
	dir := filepath.Join(s.dir, deviceDir(device))
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var gens []Generation
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := parseGen(e.Name())
		if !ok {
			continue
		}
		g := Generation{Seq: seq}
		if info, err := e.Info(); err == nil {
			g.Time = info.ModTime()
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].Seq > gens[j].Seq })
	return gens, nil
}

// nextSeq reserves the next generation sequence for a device,
// initializing from the directory on first use so sequences keep
// increasing across process restarts.
func (s *Store) nextSeq(device string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.next[device]; ok {
		s.next[device] = n + 1
		return n, nil
	}
	gens, err := s.generations(device)
	if err != nil {
		return 0, err
	}
	var n uint64 = 1
	if len(gens) > 0 {
		n = gens[0].Seq + 1
	}
	s.next[device] = n + 1
	return n, nil
}

// Save writes one checkpoint generation for the device crash-safely:
// temp file, fsync, atomic rename, directory fsync, then pruning of
// generations beyond Keep. src is typically a *core.Analyzer; the
// engine calls Save from the device's worker goroutine, which owns the
// analyzer, so the serialization is a consistent point-in-time state.
func (s *Store) Save(device string, src io.WriterTo) (Generation, error) {
	return s.save(device, func(f *os.File) error {
		_, err := src.WriteTo(f)
		return err
	})
}

func (s *Store) save(device string, write func(f *os.File) error) (Generation, error) {
	dir := filepath.Join(s.dir, deviceDir(device))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Generation{}, fmt.Errorf("checkpoint: create device dir: %w", err)
	}
	seq, err := s.nextSeq(device)
	if err != nil {
		return Generation{}, fmt.Errorf("checkpoint: scan generations: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*"+ckptSuffix)
	if err != nil {
		return Generation{}, fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; a crash leaves it
	// behind for the next Open to sweep up.
	fail := func(step string, err error) (Generation, error) {
		tmp.Close()
		os.Remove(tmpName)
		return Generation{}, fmt.Errorf("checkpoint: %s: %w", step, err)
	}
	if err := write(tmp); err != nil {
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if s.faultHook != nil {
		if err := s.faultHook(device, seq); err != nil {
			os.Remove(tmpName)
			return Generation{}, fmt.Errorf("checkpoint: fault hook: %w", err)
		}
	}
	final := filepath.Join(dir, genName(seq))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return Generation{}, fmt.Errorf("checkpoint: rename: %w", err)
	}
	// Sync the directory so the rename itself is durable. A failure
	// here does not invalidate the data — it only weakens durability —
	// so it is reported but the generation stands.
	if err := syncDir(dir); err != nil {
		return Generation{Seq: seq, Time: time.Now()}, fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	s.prune(device, dir)
	return Generation{Seq: seq, Time: time.Now()}, nil
}

// prune removes generations beyond the retention count, oldest first.
// Pruning is best-effort: a file that cannot be removed is simply kept
// for the next pass.
func (s *Store) prune(device, dir string) {
	gens, err := s.generations(device)
	if err != nil {
		return
	}
	for _, g := range gens[min(len(gens), s.keep):] {
		_ = os.Remove(filepath.Join(dir, genName(g.Seq)))
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Latest reports the newest on-disk generation for a device, without
// validating it. ok is false when the device has no generations.
func (s *Store) Latest(device string) (g Generation, ok bool) {
	gens, err := s.generations(device)
	if err != nil || len(gens) == 0 {
		return Generation{}, false
	}
	return gens[0], true
}

// Restore loads the freshest valid checkpoint for the device, walking
// generations newest-first and skipping any that fail to parse — the
// newest file after a crash can legitimately be truncated or torn.
// It returns ErrNoCheckpoint when nothing restorable exists; corrupt
// generations that were skipped on the way to a successful restore are
// left in place (they age out through retention).
func (s *Store) Restore(device string) (*core.Analyzer, Generation, error) {
	var a *core.Analyzer
	g, err := s.RestoreWith(device, func(r io.Reader) error {
		loaded, err := core.LoadAnalyzer(r)
		if err != nil {
			return err
		}
		a = loaded
		return nil
	})
	if err != nil {
		return nil, Generation{}, err
	}
	return a, g, nil
}

// RestoreWith is Restore for arbitrary payloads: it walks generations
// newest-first and hands each to load until one parses, so callers that
// checkpoint something other than an Analyzer (the fleet aggregator's
// mirror state, say) get the same torn-file tolerance. load must return
// an error on any payload it cannot fully decode; a load that succeeds
// ends the walk and its generation is returned.
func (s *Store) RestoreWith(device string, load func(r io.Reader) error) (Generation, error) {
	gens, err := s.generations(device)
	if err != nil {
		return Generation{}, fmt.Errorf("checkpoint: scan generations: %w", err)
	}
	dir := filepath.Join(s.dir, deviceDir(device))
	for _, g := range gens {
		f, err := os.Open(filepath.Join(dir, genName(g.Seq)))
		if err != nil {
			continue
		}
		err = load(f)
		f.Close()
		if err != nil {
			// Truncated or corrupt generation: fall back to the next
			// older one.
			continue
		}
		return g, nil
	}
	return Generation{}, fmt.Errorf("%w (device %q, %d generation(s) scanned)", ErrNoCheckpoint, device, len(gens))
}
