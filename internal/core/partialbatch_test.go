package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/checkpoint"
	"repro/internal/crashpoint"
	"repro/internal/event"
)

// partialStub is a BatchProcessor that always stops partway, for exercising
// ProcessBatch's partial-prefix accounting.
type partialStub struct {
	Storage
	applied int
}

var errStub = errors.New("stub: node failed mid-batch")

func (s *partialStub) ProcessEventBatch(evs []event.Event) error {
	return &PartialBatchError{Applied: s.applied, Err: errStub}
}

// TestProcessBatchPartialError checks ProcessBatch surfaces a batch-capable
// handle's partial progress: the delivered count is the applied prefix, not
// zero, so callers respill only the un-ingested suffix.
func TestProcessBatchPartialError(t *testing.T) {
	evs := make([]event.Event, 5)
	delivered, err := ProcessBatch(&partialStub{applied: 3}, evs)
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	var pe *PartialBatchError
	if !errors.As(err, &pe) || pe.Applied != 3 || !errors.Is(err, errStub) {
		t.Fatalf("err = %v, want PartialBatchError{Applied: 3} wrapping errStub", err)
	}
}

// TestProcessEventBatchPartialAppend drives a group WAL append that fails
// partway, at a mid-batch segment rotation. The archive fails stop: the
// node applies none of the batch and reports no prefix, the caller's respill
// is refused with archive.ErrFailed, and the WAL holds dense LSNs with no
// event logged twice.
func TestProcessEventBatchPartialAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	arch, err := archive.Open(dir, archive.Options{SegmentEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arch.Close() })
	n := newTestNode(t, Config{Partitions: 2, Archive: arch})

	mk := func(i int) event.Event {
		return event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
	}
	// Two per-event appends leave room for 2 more events in the active
	// segment, so a 6-event batch must rotate after its first chunk.
	for i := 0; i < 2; i++ {
		if err := n.ProcessEventAsync(mk(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Hide the archive directory: the open segment file keeps accepting the
	// first chunk, but the rotation cannot create its successor.
	moved := dir + ".off"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	batch := make([]event.Event, 6)
	for i := range batch {
		batch[i] = mk(2 + i)
	}
	delivered, err := ProcessBatch(n, batch)
	var pe *PartialBatchError
	if delivered != 0 || !errors.Is(err, archive.ErrFailed) || errors.As(err, &pe) {
		t.Fatalf("batch spanning a broken rotation: delivered=%d err=%v, want 0 and a bare archive.ErrFailed", delivered, err)
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}

	// Nothing of the failed batch was applied.
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().EventsProcessed; got != 2 {
		t.Fatalf("processed %d events after the failed batch, want 2", got)
	}
	// The respill is refused even though the directory is back.
	if err := n.ProcessEventBatch(batch); !errors.Is(err, archive.ErrFailed) {
		t.Fatalf("respill after the failure = %v, want archive.ErrFailed", err)
	}

	// The WAL holds what reached disk once: dense LSNs, no duplicates, the
	// acked events first.
	next := uint64(0)
	if err := arch.Replay(0, func(lsn uint64, ev event.Event) error {
		if lsn != next || ev != mk(int(lsn)) {
			t.Fatalf("replay lsn %d (want %d): got %+v", lsn, next, ev)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next < 2 {
		t.Fatalf("archive replayed %d events, want the 2 acked ones", next)
	}
}

// TestFailedSyncFailsStop injects an fsync failure under a batch on a
// SyncOnWrite node, then respills the batch the way core.ProcessBatch's
// caller does. The respill, a sync event and a checkpoint must all be
// refused with archive.ErrFailed, and the WAL must hold every acked event
// and no event twice.
func TestFailedSyncFailsStop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	arch, err := archive.Open(dir, archive.Options{SyncOnWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode(t, Config{Partitions: 2, Archive: arch})
	mk := func(i int) event.Event {
		return event.Event{Caller: uint64(i%3) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
	}
	acked := 0
	for ; acked < 4; acked++ {
		if _, err := n.ProcessEvent(mk(acked)); err != nil {
			t.Fatal(err)
		}
	}

	injected := errors.New("injected fsync error")
	crashpoint.SetHook(func(string) error { return injected })
	if err := crashpoint.Arm(crashpoint.ArchiveAppendBeforeSync); err != nil {
		t.Fatal(err)
	}
	batch := make([]event.Event, 5)
	for i := range batch {
		batch[i] = mk(acked + i)
	}
	delivered, err := ProcessBatch(n, append([]event.Event(nil), batch...))
	crashpoint.Disarm()
	if delivered != 0 || !errors.Is(err, archive.ErrFailed) || !errors.Is(err, injected) {
		t.Fatalf("batch with a failed fsync: delivered=%d err=%v, want 0 and ErrFailed wrapping the cause", delivered, err)
	}

	if err := n.ProcessEventBatch(batch[delivered:]); !errors.Is(err, archive.ErrFailed) {
		t.Fatalf("respill = %v, want archive.ErrFailed", err)
	}
	if _, err := n.ProcessEvent(mk(100)); !errors.Is(err, archive.ErrFailed) {
		t.Fatalf("sync event = %v, want archive.ErrFailed", err)
	}
	mgr, err := checkpoint.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Checkpoint(mgr, true); !errors.Is(err, archive.ErrFailed) {
		t.Fatalf("checkpoint = %v, want archive.ErrFailed", err)
	}
	if err := arch.Close(); !errors.Is(err, archive.ErrFailed) {
		t.Fatalf("close = %v, want archive.ErrFailed", err)
	}

	// Recovery view: the WAL opens Strict, carries no event at two LSNs, and
	// holds every acked event at its LSN.
	re, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seen := map[int64]uint64{}
	if err := re.Replay(0, func(lsn uint64, ev event.Event) error {
		if prev, dup := seen[ev.Timestamp]; dup {
			t.Fatalf("event ts %d logged twice, at lsn %d and %d", ev.Timestamp, prev, lsn)
		}
		seen[ev.Timestamp] = lsn
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < acked; i++ {
		if lsn, ok := seen[mk(i).Timestamp]; !ok || lsn != uint64(i) {
			t.Fatalf("acked event %d: at lsn %d (present %v), want lsn %d", i, lsn, ok, i)
		}
	}
}
