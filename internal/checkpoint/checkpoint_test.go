package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkRec(entity uint64, v uint64) []uint64 { return []uint64{entity, v, v * 2} }

func TestWriterReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.ckpt")
	w, err := NewWriter(path, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 5; e++ {
		if err := w.Add(mkRec(e, e*10)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]uint64
	wm, err := ReadFile(path, func(rec []uint64) error {
		cp := append([]uint64(nil), rec...)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wm != 42 || len(got) != 5 {
		t.Fatalf("wm=%d records=%d", wm, len(got))
	}
	if got[2][0] != 3 || got[2][1] != 30 || got[2][2] != 60 {
		t.Fatalf("record 2 = %v", got[2])
	}
}

func TestWriterValidatesArity(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "x.ckpt"), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]uint64{1}); err == nil {
		t.Fatal("short record accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, func([]uint64) error { return nil }); err == nil {
		t.Fatal("bad header accepted")
	}
	// Truncated payload.
	w, _ := NewWriter(path, 2, 1)
	w.Add([]uint64{1, 2})
	w.Add([]uint64{2, 3})
	w.Close()
	fi, _ := os.Stat(path)
	os.Truncate(path, fi.Size()-8)
	if _, err := ReadFile(path, func([]uint64) error { return nil }); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestCrashedCheckpointInvisible(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.Create(2, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Add([]uint64{1, 2})
	// No Close: simulates a crash mid-checkpoint.
	recs, wm, err := m.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || wm != 0 {
		t.Fatalf("unpublished checkpoint visible: %d recs", len(recs))
	}
	w.abort()
}

func TestManagerIncrementalLoadLatestWins(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if has, _ := m.HasBase(); has {
		t.Fatal("empty dir has base")
	}
	// Base: entities 1..4 at version 1.
	w, err := m.Create(3, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 4; e++ {
		w.Add(mkRec(e, 1))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if has, _ := m.HasBase(); !has {
		t.Fatal("base not detected")
	}
	// Increment: entity 2 updated, entity 9 new.
	w2, err := m.Create(3, 200, false)
	if err != nil {
		t.Fatal(err)
	}
	w2.Add(mkRec(2, 5))
	w2.Add(mkRec(9, 1))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, wm, err := m.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 200 {
		t.Fatalf("watermark = %d", wm)
	}
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[2][1] != 5 {
		t.Fatalf("entity 2 version = %d, want increment's 5", recs[2][1])
	}
	if recs[1][1] != 1 || recs[9][1] != 1 {
		t.Fatal("base/new entities wrong")
	}
}

func TestNewManagerRemovesOrphanedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-checkpoint leaves the temp file behind.
	orphan := filepath.Join(dir, "000003-incr.ckpt.tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned tmp survived Open: %v", err)
	}
}

func TestNextSeqSurvivesGCHoles(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w, _ := m.Create(2, uint64(i), i == 2) // last one is the base
		w.Add([]uint64{1, uint64(i)})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if removed, wm, err := m.GC(); err != nil || removed != 2 || wm != 2 {
		t.Fatalf("GC: removed=%d wm=%d err=%v", removed, wm, err)
	}
	// The next file must sort AFTER the surviving base, not collide with
	// the freed low sequence numbers.
	w, _ := m.Create(2, 9, false)
	w.Add([]uint64{1, 99})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := m.files()
	if len(files) != 2 || seqOf(files[1]) != 4 {
		t.Fatalf("files after GC+create: %v", files)
	}
	recs, wm, err := m.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 9 || recs[1][1] != 99 {
		t.Fatalf("latest-wins broken after GC: wm=%d recs=%v", wm, recs)
	}
}

func TestRecordCRCDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	w, _ := NewWriter(path, 3, 7)
	for e := uint64(1); e <= 4; e++ {
		w.Add(mkRec(e, e))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[headerSize+10] ^= 0x01 // flip a bit in record 0's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, func([]uint64) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not detected: %v", err)
	}
}

func TestUnsealedFileRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	w, _ := NewWriter(path, 2, 1)
	w.Add([]uint64{1, 2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the trailer off: simulates a rename racing a missing fsync.
	fi, _ := os.Stat(path)
	os.Truncate(path, fi.Size()-trailerSize)
	if _, err := ReadFile(path, func([]uint64) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsealed file accepted: %v", err)
	}
}

func TestSalvageDropsCorruptSuffix(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// base(wm=100) + incr(wm=200) + incr(wm=300)
	for i, wm := range []uint64{100, 200, 300} {
		w, _ := m.Create(3, wm, i == 0)
		w.Add(mkRec(uint64(i+1), wm))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := m.files()
	// Corrupt the middle increment.
	data, _ := os.ReadFile(files[1])
	data[headerSize+3] ^= 0xFF
	os.WriteFile(files[1], data, 0o644)

	// Strict refuses.
	if _, _, err := m.Load(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict load of corrupt chain: %v", err)
	}
	// Salvage keeps the base, quarantines the corrupt increment AND the
	// later valid one (it cannot be applied over a hole).
	recs, wm, rep, err := m.LoadWithReport(3, Salvage)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 100 || len(recs) != 1 || recs[1] == nil {
		t.Fatalf("salvage: wm=%d recs=%v", wm, recs)
	}
	if len(rep.QuarantinedFiles) != 2 || rep.Clean() {
		t.Fatalf("report = %+v", rep)
	}
	q, _ := filepath.Glob(filepath.Join(m.Dir(), "*.quarantine"))
	if len(q) != 2 {
		t.Fatalf("quarantined on disk: %v", q)
	}
	// A later load sees only the surviving prefix.
	recs2, wm2, err := m.Load(3)
	if err != nil || wm2 != 100 || len(recs2) != 1 {
		t.Fatalf("reload after salvage: wm=%d recs=%d err=%v", wm2, len(recs2), err)
	}
}

// TestReadRejectsRevision1 pins that a revision-1 file ("AIMCKPT1", count
// in the header, no checksums) is no longer read: it fails with ErrCorrupt
// naming its magic, and hands the callback nothing.
func TestReadRejectsRevision1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	buf := make([]byte, headerSize+8+2*2*8)
	copy(buf, "AIMCKPT1")
	binary.LittleEndian.PutUint32(buf[8:], 2)            // slots
	binary.LittleEndian.PutUint64(buf[12:], 77)          // watermark
	binary.LittleEndian.PutUint64(buf[headerSize:], 2)   // count
	binary.LittleEndian.PutUint64(buf[headerSize+8:], 5) // first record
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, err := ReadFile(path, func([]uint64) error { calls++; return nil })
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "AIMCKPT1") || calls != 0 {
		t.Fatalf("revision-1 read: err=%v calls=%d, want ErrCorrupt naming the magic and no records", err, calls)
	}
}

func TestCompact(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w, err := m.Create(3, uint64(100+i), i == 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(mkRec(uint64(i+1), uint64(i)))
		w.Add(mkRec(42, uint64(i))) // rewritten every time
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(3); err != nil {
		t.Fatal(err)
	}
	files, _ := m.files()
	if len(files) != 1 {
		t.Fatalf("after compact: %v", files)
	}
	recs, wm, err := m.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 102 || len(recs) != 4 {
		t.Fatalf("wm=%d recs=%d", wm, len(recs))
	}
	if recs[42][1] != 2 {
		t.Fatalf("entity 42 version = %d", recs[42][1])
	}
}
