package engine

import (
	"errors"
	"io"
	"testing"

	"daccor/internal/blktrace"
	"daccor/internal/core"
)

// TestStoppedSemantics pins the post-Stop contract across the entire
// API surface in one table: every ingest and query entry point —
// engine-level, device-handle, single and batch — answers ErrStopped,
// immediately and consistently. Callers shut down in arbitrary order,
// so "which error does a racing producer see?" must have exactly one
// answer.
func TestStoppedSemantics(t *testing.T) {
	e := mustEngine(t, WithDevices("vol0", "vol1"))
	dev, err := e.Device("vol0")
	if err != nil {
		t.Fatal(err)
	}
	ev := blktrace.Event{Op: blktrace.OpRead, Extent: blktrace.Extent{Block: 1, Len: 1}}
	if err := dev.Submit(ev); err != nil {
		t.Fatal(err)
	}
	e.Stop()

	batch := []blktrace.Event{ev, ev}
	ops := []struct {
		name string
		call func() error
	}{
		{"Engine.Submit", func() error { return e.Submit("vol0", ev) }},
		{"Engine.SubmitBatch", func() error { return e.SubmitBatch("vol0", batch) }},
		{"Device.Submit", func() error { return dev.Submit(ev) }},
		{"Device.SubmitBatch", func() error { return dev.SubmitBatch(batch) }},
		{"Engine.Snapshot", func() error { _, err := e.Snapshot("vol0", 0); return err }},
		{"Engine.State", func() error { _, _, err := e.State("vol0", 0, 0, 1, core.WantPairs|core.WantRules); return err }},
		{"Engine.WriteSnapshot", func() error { return e.WriteSnapshot("vol0", io.Discard) }},
		{"Engine.MergedSnapshot", func() error { _, err := e.MergedSnapshot(0); return err }},
		{"Engine.MergedState", func() error {
			_, _, _, err := e.MergedState(0, 0, 1, core.WantPairs|core.WantRules)
			return err
		}},
		{"Engine.Stats", func() error { _, err := e.Stats(); return err }},
		{"Engine.DeviceStatsFor", func() error { _, err := e.DeviceStatsFor("vol0"); return err }},
		{"Engine.Register", func() error { return e.Register("vol2") }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			if err := op.call(); !errors.Is(err, ErrStopped) {
				t.Errorf("%s after Stop = %v, want ErrStopped", op.name, err)
			}
		})
	}

	// The non-erroring surfaces stay usable: drop counters and health
	// outlive Stop (operators read them during shutdown triage), and
	// Stopped reports the state.
	if !e.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	if _, err := e.Dropped("vol0"); err != nil {
		t.Errorf("Dropped after Stop = %v, want nil", err)
	}
	if h := e.Health(); len(h) != 2 {
		t.Errorf("Health after Stop lists %d devices, want 2", len(h))
	}
	if _, err := e.Device("vol1"); err != nil {
		t.Errorf("Device lookup after Stop = %v, want nil (handle resolution is not ingest)", err)
	}
	// Stop stays idempotent.
	e.Stop()
}
