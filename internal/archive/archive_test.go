package archive

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/schema"
)

func mkEvent(caller uint64, ts, dur int64, cost float64, ld bool) event.Event {
	return event.Event{Caller: caller, Callee: 1, Timestamp: ts, Duration: dur, Cost: cost, LongDistance: ld}
}

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 100; i++ {
		ev := mkEvent(uint64(i%7)+1, int64(i), 10, 1, false)
		lsn, _, err := a.AppendBatch([]event.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if a.Len() != 100 || a.NextLSN() != 100 {
		t.Fatalf("Len=%d NextLSN=%d", a.Len(), a.NextLSN())
	}
}

func TestReplayFromWatermark(t *testing.T) {
	a, err := Open(t.TempDir(), Options{SegmentEvents: 16}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 50; i++ {
		ev := mkEvent(1, int64(i), int64(i), 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err = a.Replay(37, func(lsn uint64, ev event.Event) error {
		got = append(got, lsn)
		if ev.Duration != int64(lsn) {
			t.Fatalf("lsn %d carries duration %d", lsn, ev.Duration)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 13 || got[0] != 37 || got[12] != 49 {
		t.Fatalf("replayed %v", got)
	}
}

func TestReopenRecoversStateAndKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{SegmentEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ev := mkEvent(uint64(i%3)+1, int64(i), 10, 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := Open(dir, Options{SegmentEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != 20 || b.NextLSN() != 20 {
		t.Fatalf("after reopen Len=%d NextLSN=%d", b.Len(), b.NextLSN())
	}
	ev := mkEvent(9, 100, 10, 1, false)
	lsn, _, err := b.AppendBatch([]event.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 20 {
		t.Fatalf("append after reopen lsn = %d", lsn)
	}
	count := 0
	if err := b.Replay(0, func(uint64, event.Event) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 21 {
		t.Fatalf("replayed %d events", count)
	}
}

func TestTornTailStrictVsSalvage(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ev := mkEvent(1, int64(i), 10, 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	// Simulate a crash mid-write: truncate to a non-frame boundary.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	fi, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	// Strict refuses the torn tail.
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open of torn tail: err = %v, want ErrCorrupt", err)
	}
	// Salvage truncates it at the last valid frame and reports the drop.
	b, err := Open(dir, Options{Recovery: Salvage})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Len() != 4 {
		t.Fatalf("after torn tail Len = %d, want 4", b.Len())
	}
	rep := b.Report()
	if rep.FramesDropped != 1 || rep.BytesTruncated == 0 || rep.Clean() {
		t.Fatalf("salvage report = %+v", rep)
	}
	// The archive accepts new appends and LSNs stay dense.
	ev := mkEvent(2, 9, 10, 1, false)
	lsn, _, err := b.AppendBatch([]event.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("post-recovery lsn = %d", lsn)
	}
	b.Close()
	// The repaired archive reopens cleanly under Strict.
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 5 || !c.Report().Clean() {
		t.Fatalf("after repair Len=%d report=%+v", c.Len(), c.Report())
	}
}

func TestBitFlipDetectedByFrameCRC(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ev := mkEvent(uint64(i)+1, int64(i), 10, 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	// Flip one payload byte in frame 5 (past the header + 5 frames).
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize + 5*frameSize + 20)
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict open of bit-flipped frame: %v", err)
	}
	s, err := Open(dir, Options{Recovery: Salvage})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 5 {
		t.Fatalf("salvaged Len = %d, want 5 (frames 0..4)", s.Len())
	}
	if rep := s.Report(); rep.FramesDropped != 3 {
		t.Fatalf("report = %+v, want 3 frames dropped", rep)
	}
}

func TestSalvageQuarantinesUnreachableSegments(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{SegmentEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ { // 3 segments
		ev := mkEvent(1, int64(i), int64(i), 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 3 {
		t.Fatalf("segments: %v", segs)
	}
	// Corrupt the MIDDLE segment's first frame: everything after it is
	// unreachable (the LSN chain is broken).
	f, _ := os.OpenFile(segs[1], os.O_RDWR, 0)
	f.WriteAt([]byte{0xAA}, headerSize+3)
	f.Close()
	s, err := Open(dir, Options{Recovery: Salvage})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 8 {
		t.Fatalf("salvaged Len = %d, want 8 (first segment only)", s.Len())
	}
	rep := s.Report()
	if len(rep.QuarantinedFiles) != 1 || rep.FramesDropped != 16 {
		t.Fatalf("report = %+v", rep)
	}
	q, _ := filepath.Glob(filepath.Join(dir, "*.quarantine"))
	if len(q) != 1 {
		t.Fatalf("quarantined files on disk: %v", q)
	}
	// Replay covers exactly the surviving prefix and appends continue at 8.
	n := 0
	if err := s.Replay(0, func(uint64, event.Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("replayed %d", n)
	}
	ev := mkEvent(1, 99, 1, 1, false)
	if lsn, _, err := s.AppendBatch([]event.Event{ev}); err != nil || lsn != 8 {
		t.Fatalf("append after salvage: lsn=%d err=%v", lsn, err)
	}
}

// TestUnsupportedSegmentFormatRejected pins how recovery treats a segment
// without the segment magic, such as the headerless revision-1 layout
// ([lsn u64 | 64 B event] frames): Strict refuses it with ErrCorrupt naming
// the format, Salvage quarantines the file (renamed, never deleted) and the
// archive starts empty.
func TestUnsupportedSegmentFormatRejected(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	for i := 0; i < 6; i++ {
		frame := make([]byte, event.WireSize+8)
		putUint64(frame, uint64(i))
		ev := mkEvent(uint64(i%2)+1, int64(i*100), int64(i), 1, false)
		ev.Encode(frame[8:])
		buf = append(buf, frame...)
	}
	path := filepath.Join(dir, "seg-0000000000000000.log")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported segment format") {
		t.Fatalf("strict open of a headerless segment: err = %v, want ErrCorrupt naming the format", err)
	}
	a, err := Open(dir, Options{Recovery: Salvage})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rep := a.Report()
	if a.Len() != 0 || len(rep.QuarantinedFiles) != 1 || rep.QuarantinedFiles[0] != path+".quarantine" {
		t.Fatalf("salvage: Len=%d report=%+v", a.Len(), rep)
	}
	if kept, err := os.ReadFile(path + ".quarantine"); err != nil || !bytes.Equal(kept, buf) {
		t.Fatalf("quarantined file not kept intact: err=%v", err)
	}
	if lsn, _, err := a.AppendBatch([]event.Event{mkEvent(5, 1000, 9, 1, false)}); err != nil || lsn != 0 {
		t.Fatalf("append after quarantine: lsn=%d err=%v", lsn, err)
	}
}

func TestTruncateBelowKeepsTailAndLSNs(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{SegmentEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // 5 segments
		ev := mkEvent(1, int64(i), int64(i), 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := a.TruncateBelow(20) // segments [0,8) and [8,16) die
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d segments", removed)
	}
	if a.FirstLSN() != 16 || a.NextLSN() != 40 {
		t.Fatalf("FirstLSN=%d NextLSN=%d", a.FirstLSN(), a.NextLSN())
	}
	// Replay from the watermark still works.
	n := 0
	if err := a.Replay(20, func(uint64, event.Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("replayed %d", n)
	}
	// Truncating everything keeps the newest segment so next-LSN survives
	// a reopen even when all its frames are below the watermark.
	if _, err := a.TruncateBelow(1 << 60); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.NextLSN() != 40 {
		t.Fatalf("NextLSN after full truncate + reopen = %d", b.NextLSN())
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func TestEntityHistory(t *testing.T) {
	a, err := Open(t.TempDir(), Options{SegmentEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 20; i++ {
		ev := mkEvent(uint64(i%2)+1, int64(i*100), int64(i), 1, i%4 == 0)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	// Entity 1 owns even i; history over ts in [400, 1200].
	evs, err := a.EntityHistory(1, 400, 1200)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 6, 8, 10, 12}
	if len(evs) != len(want) {
		t.Fatalf("history %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Duration != want[i] {
			t.Fatalf("event %d duration %d, want %d", i, ev.Duration, want[i])
		}
	}
	if evs, _ := a.EntityHistory(999, 0, 1<<40); len(evs) != 0 {
		t.Fatal("unknown entity has history")
	}
}

// TestExactWindowVsApproximateSliding verifies the paper's footnote-1 flow:
// the materialized sliding window is an approximation; the archive
// recomputes exact aggregates, and the two agree when sub-window boundaries
// align with the query time.
func TestExactWindowVsApproximateSliding(t *testing.T) {
	a, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sch, err := schema.NewBuilder().AddGroup(schema.GroupSpec{
		Name: "dur24h", Metric: schema.MetricDuration, Filter: schema.CallAny,
		Window: schema.SlidingHours(24, 4),
		Aggs:   []schema.AggKind{schema.AggSum, schema.AggCount, schema.AggMin, schema.AggMax},
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := sch.NewRecord(1)
	sub := int64(6 * 3600 * 1000)
	base := int64(100*24*3600*1000) + 1 // just after a sub-window boundary
	durs := []int64{100, 50, 300, 200, 75}
	var last int64
	for i, d := range durs {
		ts := base + int64(i)*sub // one event per sub-window: first falls out
		ev := mkEvent(1, ts, d, 1, false)
		if _, _, err := a.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
		sch.Apply(rec, &ev)
		last = ts
	}
	exact := ExactWindow{Metric: schema.MetricDuration, Filter: schema.CallAny, WindowMillis: 24 * 3600 * 1000}
	res, err := exact.Compute(a, 1, last)
	if err != nil {
		t.Fatal(err)
	}
	// Window covers the last 4 events: 50+300+200+75.
	if res.Count != 4 || res.Sum != 625 || res.Min != 50 || res.Max != 300 {
		t.Fatalf("exact = %+v", res)
	}
	// The materialized approximation agrees here (aligned boundaries).
	if got := rec.Int(sch.MustAttrIndex("dur24h_sum")); got != 625 {
		t.Fatalf("approximate sliding sum = %d, want 625", got)
	}
	if got := rec.Int(sch.MustAttrIndex("dur24h_min")); got != 50 {
		t.Fatalf("approximate sliding min = %d", got)
	}
	// Empty window reads zeros.
	empty, err := exact.Compute(a, 1, last+48*3600*1000)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Count != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty window = %+v", empty)
	}
	// Filters restrict the history.
	ld := ExactWindow{Metric: schema.MetricCost, Filter: schema.CallLongDistance, WindowMillis: 1 << 50}
	res2, err := ld.Compute(a, 1, last)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != 0 {
		t.Fatalf("long-distance count = %d, want 0 (all events local)", res2.Count)
	}
}
