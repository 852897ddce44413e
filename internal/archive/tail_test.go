package archive

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/event"
)

// TestReadFromTailsAcrossLiveRotation drives a tailing reader (the
// log-shipping path) against an archive that is being appended to and
// rotated concurrently: every committed event must arrive exactly once, in
// LSN order, and the reader must never observe an uncommitted frame.
func TestReadFromTailsAcrossLiveRotation(t *testing.T) {
	a, err := Open(t.TempDir(), Options{SegmentEvents: 8}) // rotate often
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const total = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			ev := mkEvent(uint64(i%5)+1, int64(i), int64(i), 1, false)
			if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	var got []event.Event
	cursor := uint64(0)
	for len(got) < total {
		evs, frontier, err := a.ReadFrom(cursor, 7) // odd batch to straddle segments
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", cursor, err)
		}
		if cursor+uint64(len(evs)) > frontier {
			t.Fatalf("read past the committed frontier: cursor=%d batch=%d frontier=%d", cursor, len(evs), frontier)
		}
		for i, ev := range evs {
			if ev.Duration != int64(cursor)+int64(i) {
				t.Fatalf("lsn %d carries duration %d", cursor+uint64(i), ev.Duration)
			}
		}
		got = append(got, evs...)
		cursor += uint64(len(evs))
	}
	wg.Wait()
	if cursor != total {
		t.Fatalf("cursor = %d, want %d", cursor, total)
	}
	// Caught up: an empty batch with frontier == cursor.
	evs, frontier, err := a.ReadFrom(cursor, 64)
	if err != nil || len(evs) != 0 || frontier != total {
		t.Fatalf("caught-up read: evs=%d frontier=%d err=%v", len(evs), frontier, err)
	}
}

// TestReplayTailsAcrossLiveRotation covers the same live-tail scenario via
// incremental Replay(fromLSN) calls — the catch-up path a follower uses
// before switching to ReadFrom polling.
func TestReplayTailsAcrossLiveRotation(t *testing.T) {
	a, err := Open(t.TempDir(), Options{SegmentEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const total = 150
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			ev := mkEvent(1, int64(i), int64(i), 1, false)
			if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	seen := make([]bool, total)
	cursor := uint64(0)
	for int(cursor) < total {
		next := cursor
		err := a.Replay(cursor, func(lsn uint64, ev event.Event) error {
			if lsn != next {
				t.Fatalf("replay out of order: lsn %d, want %d", lsn, next)
			}
			if ev.Duration != int64(lsn) {
				t.Fatalf("lsn %d carries duration %d", lsn, ev.Duration)
			}
			if seen[lsn] {
				t.Fatalf("lsn %d delivered twice", lsn)
			}
			seen[lsn] = true
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("replay from %d: %v", cursor, err)
		}
		cursor = next
	}
	wg.Wait()
	for lsn, ok := range seen {
		if !ok {
			t.Fatalf("lsn %d never delivered", lsn)
		}
	}
}

// TestReadFromStopsCleanlyAtSalvagedTornTail crashes a tail frame, reopens
// in Salvage, and checks a tailing reader delivers exactly the surviving
// prefix and then reports caught-up — no error, no torn frame surfaced —
// and that events appended after the salvage flow through seamlessly.
func TestReadFromStopsCleanlyAtSalvagedTornTail(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{SegmentEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ev := mkEvent(1, int64(i), int64(i), 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last frame mid-way (a crash during the final write).
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	sort.Strings(names)
	last := names[len(names)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-frameSize/2); err != nil {
		t.Fatal(err)
	}

	a, err = Open(dir, Options{Recovery: Salvage})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.NextLSN() != 19 {
		t.Fatalf("salvaged NextLSN = %d, want 19", a.NextLSN())
	}

	cursor := uint64(0)
	for {
		evs, frontier, err := a.ReadFrom(cursor, 8)
		if err != nil {
			t.Fatalf("ReadFrom(%d) after salvage: %v", cursor, err)
		}
		if len(evs) == 0 {
			if frontier != 19 {
				t.Fatalf("frontier = %d, want 19", frontier)
			}
			break
		}
		for i, ev := range evs {
			if ev.Duration != int64(cursor)+int64(i) {
				t.Fatalf("lsn %d carries duration %d", cursor+uint64(i), ev.Duration)
			}
		}
		cursor += uint64(len(evs))
	}
	if cursor != 19 {
		t.Fatalf("tailed %d events, want the 19 surviving ones", cursor)
	}

	// The log keeps going after salvage; the tail picks the new events up.
	ev := mkEvent(2, 100, 100, 1, false)
	if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
		t.Fatal(err)
	}
	evs, frontier, err := a.ReadFrom(cursor, 8)
	if err != nil || len(evs) != 1 || frontier != 20 || evs[0].Caller != 2 {
		t.Fatalf("post-salvage tail: evs=%v frontier=%d err=%v", evs, frontier, err)
	}
}

// TestReadFromBelowRetentionFloor checks the typed gap error when a
// follower asks for log that checkpoint GC already removed.
func TestReadFromBelowRetentionFloor(t *testing.T) {
	a, err := Open(t.TempDir(), Options{SegmentEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 12; i++ {
		ev := mkEvent(1, int64(i), int64(i), 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.TruncateBelow(8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ReadFrom(0, 8); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom below floor: err = %v, want ErrTruncated", err)
	}
	// Reading at the floor still works.
	evs, _, err := a.ReadFrom(8, 8)
	if err != nil || len(evs) != 4 {
		t.Fatalf("ReadFrom at floor: evs=%d err=%v", len(evs), err)
	}
}
