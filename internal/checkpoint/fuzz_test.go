package checkpoint

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCkpt builds a real sealed v2 checkpoint file and returns its bytes.
func fuzzSeedCkpt(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	w, err := NewWriter(path, 4, 42)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := w.Add([]uint64{i, i * 2, i * 3, i * 4}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// fuzzSeedRev1 hand-crafts a revision-1 checkpoint file (count in the
// header, no CRCs, no trailer), which the reader must reject.
func fuzzSeedRev1() []byte {
	buf := make([]byte, headerSize+8+2*8)
	copy(buf, "AIMCKPT1")
	binary.LittleEndian.PutUint32(buf[8:], 2)   // slots
	binary.LittleEndian.PutUint64(buf[12:], 7)  // watermark
	binary.LittleEndian.PutUint64(buf[20:], 1)  // count
	binary.LittleEndian.PutUint64(buf[28:], 11) // rec slot 0
	binary.LittleEndian.PutUint64(buf[36:], 22) // rec slot 1
	return buf
}

// FuzzReadFile feeds arbitrary bytes to the checkpoint reader. It must
// never panic and never hand the callback a record of the wrong width;
// corrupt inputs must fail with ErrCorrupt, not be silently mis-parsed.
func FuzzReadFile(f *testing.F) {
	f.Add(fuzzSeedCkpt(f))
	f.Add(fuzzSeedRev1())
	f.Add([]byte{})
	f.Add(magicV2[:])
	f.Add([]byte("AIMCKPT1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "000001-base.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var widths []int
		wm, err := ReadFile(path, func(rec []uint64) error {
			widths = append(widths, len(rec))
			return nil
		})
		if err != nil {
			return // rejected — fine, as long as it didn't panic
		}
		_ = wm
		for i := 1; i < len(widths); i++ {
			if widths[i] != widths[0] {
				t.Fatalf("record widths differ: %d vs %d", widths[0], widths[i])
			}
		}
		// A file ReadFile accepts must also load through the Manager in
		// both modes without panicking.
		mgr, err := NewManager(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(widths) > 0 {
			if _, _, _, err := mgr.LoadWithReport(widths[0], Strict); err != nil {
				t.Fatalf("manager strict load of a valid file: %v", err)
			}
		}
	})
}
