package archive

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crashpoint"
	"repro/internal/event"
)

// TestAppendBatchMatchesPerEventAppend checks a group append is
// indistinguishable from per-event appends (batches of one) on replay: same dense LSNs, same
// events, same per-entity index, including when the batch spans a segment
// rotation.
func TestAppendBatchMatchesPerEventAppend(t *testing.T) {
	evs := make([]event.Event, 40)
	for i := range evs {
		evs[i] = mkEvent(uint64(i%5)+1, int64(i), int64(i), 1, false)
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(dirA, Options{SegmentEvents: 16}) // batch crosses 2 rotations
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dirB, Options{SegmentEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	first, appended, err := a.AppendBatch(evs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || appended != len(evs) {
		t.Fatalf("first LSN = %d appended = %d, want 0 and %d", first, appended, len(evs))
	}
	for i := range evs {
		lsn, _, err := b.AppendBatch(evs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("per-event lsn = %d, want %d", lsn, i)
		}
	}
	if a.Len() != b.Len() || a.NextLSN() != b.NextLSN() {
		t.Fatalf("batch Len=%d NextLSN=%d, per-event Len=%d NextLSN=%d",
			a.Len(), a.NextLSN(), b.Len(), b.NextLSN())
	}

	collect := func(ar *Archive) []event.Event {
		var out []event.Event
		next := uint64(0)
		err := ar.Replay(0, func(lsn uint64, ev event.Event) error {
			if lsn != next {
				t.Fatalf("replay lsn = %d, want %d", lsn, next)
			}
			next++
			out = append(out, ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	gotA, gotB := collect(a), collect(b)
	if len(gotA) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(gotA), len(evs))
	}
	for i := range gotA {
		if gotA[i] != gotB[i] || gotA[i] != evs[i] {
			t.Fatalf("event %d: batch %+v, per-event %+v, want %+v", i, gotA[i], gotB[i], evs[i])
		}
	}
	for caller := uint64(1); caller <= 5; caller++ {
		ha, err := a.EntityHistory(caller, 0, int64(len(evs)))
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.EntityHistory(caller, 0, int64(len(evs)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ha) != len(hb) || len(ha) != 8 {
			t.Fatalf("entity %d: batch index %d, per-event index %d, want 8", caller, len(ha), len(hb))
		}
	}
}

// TestAppendBatchEmptyAndSingle covers the degenerate batch sizes: an empty
// batch is a no-op and a 1-event batch logs exactly one frame.
func TestAppendBatchEmptyAndSingle(t *testing.T) {
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, appended, err := a.AppendBatch(nil); err != nil || appended != 0 {
		t.Fatalf("empty batch: appended=%d err=%v", appended, err)
	}
	if a.Len() != 0 {
		t.Fatalf("Len after empty batch = %d", a.Len())
	}
	ev := mkEvent(7, 1, 2, 3, true)
	first, appended, err := a.AppendBatch([]event.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || appended != 1 || a.Len() != 1 || a.NextLSN() != 1 {
		t.Fatalf("single-event batch: first=%d appended=%d Len=%d NextLSN=%d",
			first, appended, a.Len(), a.NextLSN())
	}
}

// TestTornGroupAppendSalvages simulates a crash mid-way through the LAST
// frame of a group append — the state the archive.append.batch-torn kill
// point exposes — and checks Salvage recovery truncates to the whole-event
// boundary: every fully-written frame of the batch survives, only the torn
// final frame is dropped.
func TestTornGroupAppendSalvages(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Arm the batch-torn point with a hook that records the segment size at
	// the instant the kill would fire (the prefix write has landed, the
	// remainder of the last frame has not), instead of dying.
	if err := crashpoint.Arm(crashpoint.ArchiveAppendBatchTorn); err != nil {
		t.Fatal(err)
	}
	defer crashpoint.Disarm()
	var tornSize int64 = -1
	crashpoint.SetHook(func(name string) error {
		if name != crashpoint.ArchiveAppendBatchTorn {
			return nil
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		if len(segs) != 1 {
			t.Errorf("segments at torn point: %v", segs)
			return nil
		}
		fi, err := os.Stat(segs[0])
		if err != nil {
			t.Error(err)
			return nil
		}
		tornSize = fi.Size()
		return nil
	})

	evs := make([]event.Event, 10)
	for i := range evs {
		evs[i] = mkEvent(uint64(i)+1, int64(i), 10, 1, false)
	}
	if _, _, err := a.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if tornSize < 0 {
		t.Fatal("batch-torn crashpoint never fired")
	}

	// Rewind the segment to the crash instant and recover.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	if err := os.Truncate(segs[0], tornSize); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open of torn group append: err = %v, want ErrCorrupt", err)
	}
	b, err := Open(dir, Options{Recovery: Salvage})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != len(evs)-1 || b.NextLSN() != uint64(len(evs)-1) {
		t.Fatalf("after salvage Len=%d NextLSN=%d, want %d", b.Len(), b.NextLSN(), len(evs)-1)
	}
	rep := b.Report()
	if rep.FramesDropped != 1 || rep.Clean() {
		t.Fatalf("salvage report = %+v", rep)
	}
	// The surviving prefix replays intact and appending resumes densely.
	next := uint64(0)
	if err := b.Replay(0, func(lsn uint64, ev event.Event) error {
		if lsn != next || ev != evs[lsn] {
			t.Fatalf("replay lsn %d: got %+v", lsn, ev)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lsn, _, err := b.AppendBatch(evs[len(evs)-1:])
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(evs)-1) {
		t.Fatalf("append after salvage lsn = %d", lsn)
	}
}

// TestFailStopAfterWriteError checks the archive's failure contract: the
// first write error fails the append with ErrFailed wrapping the cause, and
// from then on every append and Sync returns it, so nothing is logged past
// the failure. What reached disk before it reopens intact.
func TestFailStopAfterWriteError(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 6)
	for i := range evs {
		evs[i] = mkEvent(uint64(i)+1, int64(i), 10, 1, false)
	}
	if _, _, err := a.AppendBatch(evs[:3]); err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected write error")
	if err := crashpoint.Arm(crashpoint.ArchiveAppendBeforeWrite); err != nil {
		t.Fatal(err)
	}
	crashpoint.SetHook(func(string) error { return injected })
	_, n, err := a.AppendBatch(evs[3:])
	crashpoint.Disarm()
	if n != 0 || !errors.Is(err, ErrFailed) || !errors.Is(err, injected) {
		t.Fatalf("failing append: n=%d err=%v, want 0 and ErrFailed wrapping the cause", n, err)
	}
	if _, n, err := a.AppendBatch(evs[3:]); n != 0 || !errors.Is(err, ErrFailed) {
		t.Fatalf("append after failure: n=%d err=%v, want ErrFailed", n, err)
	}
	if err := a.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("sync after failure: %v, want ErrFailed", err)
	}
	if err := a.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("close after failure: %v, want ErrFailed", err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != 3 || b.NextLSN() != 3 {
		t.Fatalf("reopened Len=%d NextLSN=%d, want 3", b.Len(), b.NextLSN())
	}
}
