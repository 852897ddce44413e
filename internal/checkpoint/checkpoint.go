// Package checkpoint implements AIM's incremental checkpointing (§7): the
// Analytics Matrix is periodically snapshotted to disk — a full base
// checkpoint followed by increments containing only the Entity Records
// dirtied since the previous checkpoint — together with an event-archive
// watermark (LSN). Recovery loads base + increments (later wins per entity)
// and replays the archive tail beyond the watermark.
//
// File format revision 2 (little endian):
//
//	magic   "AIMCKPT2"             8 B
//	slots   u32                    record width
//	wmark   u64                    archive watermark (next LSN at snapshot)
//	records count × (slots×8 B + crc32c u32)   per-record CRC over the payload
//	trailer "AIMCKEND" 8 B | count u64 | crc32c u32 over all preceding bytes
//
// The sealed trailer replaces revision 1's patched count field: a file
// without a valid trailer was never completely written. A file of any other
// revision fails with ErrCorrupt (bad magic).
//
// Files are written to a temp name and renamed on Close, so a crashed
// checkpoint never becomes visible; Manager garbage-collects orphaned
// *.tmp files left behind by a crash.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/crashpoint"
)

var (
	magicV2   = [8]byte{'A', 'I', 'M', 'C', 'K', 'P', 'T', '2'}
	sealMagic = [8]byte{'A', 'I', 'M', 'C', 'K', 'E', 'N', 'D'}
)

const (
	headerSize  = 8 + 4 + 8 // magic + slots + watermark
	trailerSize = 8 + 8 + 4 // seal magic + count + file CRC

	// maxSlots bounds the record width a reader will accept, so corrupt or
	// adversarial headers cannot trigger huge allocations.
	maxSlots = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a checkpoint file that fails validation: bad magic, a
// record CRC mismatch, a truncated payload, or a missing seal trailer.
// Callers test with errors.Is.
var ErrCorrupt = errors.New("corrupt checkpoint")

// Writer streams one revision-2 checkpoint file.
type Writer struct {
	f       *os.File
	w       *bufio.Writer
	path    string
	tmp     string
	slots   int
	count   uint64
	bytes   uint64
	fileCRC uint32 // running CRC over every byte written so far
}

// NewWriter creates a checkpoint file at path (via a temp file).
func NewWriter(path string, slots int, watermark uint64) (*Writer, error) {
	if slots <= 0 || slots > maxSlots {
		return nil, fmt.Errorf("checkpoint: invalid record width %d", slots)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<20), path: path, tmp: tmp, slots: slots}
	var hdr [headerSize]byte
	copy(hdr[:8], magicV2[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(slots))
	binary.LittleEndian.PutUint64(hdr[12:], watermark)
	if err := w.write(hdr[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return w, nil
}

func (w *Writer) write(b []byte) error {
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.fileCRC = crc32.Update(w.fileCRC, castagnoli, b)
	w.bytes += uint64(len(b))
	return nil
}

// Add appends one record with its CRC.
func (w *Writer) Add(rec []uint64) error {
	if len(rec) != w.slots {
		return fmt.Errorf("checkpoint: record has %d slots, want %d", len(rec), w.slots)
	}
	buf := make([]byte, len(rec)*8+4)
	for i, word := range rec {
		binary.LittleEndian.PutUint64(buf[i*8:], word)
	}
	binary.LittleEndian.PutUint32(buf[len(rec)*8:], crc32.Checksum(buf[:len(rec)*8], castagnoli))
	if err := w.write(buf); err != nil {
		return err
	}
	w.count++
	crashpoint.Hit(crashpoint.CheckpointAddRecord)
	return nil
}

// Count returns the number of records added so far.
func (w *Writer) Count() uint64 { return w.count }

// Bytes returns the number of payload bytes written so far (records + header).
func (w *Writer) Bytes() uint64 { return w.bytes }

// Close seals the file with the trailer, fsyncs, and publishes it.
func (w *Writer) Close() error {
	crashpoint.Hit(crashpoint.CheckpointCloseBeforeSeal)
	var tr [trailerSize]byte
	copy(tr[:8], sealMagic[:])
	binary.LittleEndian.PutUint64(tr[8:], w.count)
	// The trailer CRC covers everything before its own field, including the
	// seal magic and count.
	if err := w.write(tr[:16]); err != nil {
		w.abort()
		return err
	}
	binary.LittleEndian.PutUint32(tr[16:], w.fileCRC)
	if err := w.write(tr[16:]); err != nil {
		w.abort()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.abort()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	crashpoint.Hit(crashpoint.CheckpointCloseBeforeRename)
	if err := os.Rename(w.tmp, w.path); err != nil {
		return fmt.Errorf("checkpoint: publish: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return err
	}
	crashpoint.Hit(crashpoint.CheckpointCloseAfterRename)
	return nil
}

func (w *Writer) abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

// Abort discards the checkpoint without publishing it.
func (w *Writer) Abort() { w.abort() }

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// ReadFile loads one checkpoint file, invoking fn per
// record. It returns the file's watermark. Any validation failure wraps
// ErrCorrupt.
func ReadFile(path string, fn func(rec []uint64) error) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return readBytes(path, data, fn)
}

func readBytes(path string, data []byte, fn func(rec []uint64) error) (uint64, error) {
	if len(data) < headerSize {
		return 0, fmt.Errorf("checkpoint: %s: short header: %w", path, ErrCorrupt)
	}
	if string(data[:8]) != string(magicV2[:]) {
		return 0, fmt.Errorf("checkpoint: %s: bad magic %q: %w", path, data[:8], ErrCorrupt)
	}
	slots := int(binary.LittleEndian.Uint32(data[8:]))
	watermark := binary.LittleEndian.Uint64(data[12:])
	if slots <= 0 || slots > maxSlots {
		return 0, fmt.Errorf("checkpoint: %s: record width %d: %w", path, slots, ErrCorrupt)
	}
	if len(data) < headerSize+trailerSize {
		return 0, fmt.Errorf("checkpoint: %s: unsealed: %w", path, ErrCorrupt)
	}
	tr := data[len(data)-trailerSize:]
	if string(tr[:8]) != string(sealMagic[:]) {
		return 0, fmt.Errorf("checkpoint: %s: missing seal trailer: %w", path, ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(tr[8:])
	fileCRC := binary.LittleEndian.Uint32(tr[16:])
	if crc32.Checksum(data[:len(data)-4], castagnoli) != fileCRC {
		return 0, fmt.Errorf("checkpoint: %s: file checksum mismatch: %w", path, ErrCorrupt)
	}
	recSize := slots*8 + 4
	body := len(data) - headerSize - trailerSize
	if count != uint64(body)/uint64(recSize) || body%recSize != 0 {
		return 0, fmt.Errorf("checkpoint: %s: count %d does not match body size %d: %w",
			path, count, body, ErrCorrupt)
	}
	off := headerSize
	for i := uint64(0); i < count; i++ {
		payload := data[off : off+slots*8]
		want := binary.LittleEndian.Uint32(data[off+slots*8:])
		if crc32.Checksum(payload, castagnoli) != want {
			return 0, fmt.Errorf("checkpoint: %s: record %d checksum mismatch: %w",
				path, i, ErrCorrupt)
		}
		rec := make([]uint64, slots)
		for s := 0; s < slots; s++ {
			rec[s] = binary.LittleEndian.Uint64(payload[s*8:])
		}
		off += recSize
		if err := fn(rec); err != nil {
			return 0, err
		}
	}
	return watermark, nil
}

// LoadMode selects how Manager.LoadWithReport treats corrupt files.
type LoadMode int

const (
	// Strict fails on the first corrupt checkpoint file.
	Strict LoadMode = iota
	// Salvage drops the first corrupt file and every later one (increments
	// after a hole cannot be applied safely), quarantines them, and resumes
	// from the last valid file's watermark with a longer archive replay.
	Salvage
)

func (m LoadMode) String() string {
	if m == Salvage {
		return "salvage"
	}
	return "strict"
}

// LoadReport describes what a load used and what, if anything, it dropped.
type LoadReport struct {
	Mode             LoadMode
	FilesLoaded      []string
	QuarantinedFiles []string
	Records          int
	Watermark        uint64
}

// Clean reports whether the load dropped nothing.
func (r *LoadReport) Clean() bool { return len(r.QuarantinedFiles) == 0 }

// Manager names and sequences the checkpoint files of one storage node.
type Manager struct {
	dir string
}

// NewManager prepares (creating if needed) a checkpoint directory and
// removes orphaned *.tmp files left behind by a crash mid-checkpoint.
func NewManager(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.ckpt.tmp"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return nil, fmt.Errorf("checkpoint: gc tmp: %w", err)
		}
	}
	return &Manager{dir: dir}, nil
}

// Dir returns the managed directory.
func (m *Manager) Dir() string { return m.dir }

// files returns the published checkpoint files in sequence order.
func (m *Manager) files() ([]string, error) {
	names, err := filepath.Glob(filepath.Join(m.dir, "*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// seqOf parses the sequence number out of "NNNNNN-kind.ckpt"; -1 if the
// name does not match.
func seqOf(name string) int {
	base := filepath.Base(name)
	i := strings.IndexByte(base, '-')
	if i <= 0 {
		return -1
	}
	n, err := strconv.Atoi(base[:i])
	if err != nil {
		return -1
	}
	return n
}

// nextSeq returns one past the highest existing sequence number, so GC'd
// holes never cause a new file to sort before surviving ones.
func (m *Manager) nextSeq() (int, error) {
	names, err := m.files()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, n := range names {
		if s := seqOf(n); s > max {
			max = s
		}
	}
	return max + 1, nil
}

// Create opens a new checkpoint file; full selects base vs incremental
// naming (recovery falls back to the newest base, GC deletes below it).
func (m *Manager) Create(slots int, watermark uint64, full bool) (*Writer, error) {
	seq, err := m.nextSeq()
	if err != nil {
		return nil, err
	}
	kind := "incr"
	if full {
		kind = "base"
	}
	path := filepath.Join(m.dir, fmt.Sprintf("%06d-%s.ckpt", seq, kind))
	return NewWriter(path, slots, watermark)
}

// HasBase reports whether a base checkpoint exists.
func (m *Manager) HasBase() (bool, error) {
	names, err := m.files()
	if err != nil {
		return false, err
	}
	for _, n := range names {
		if strings.HasSuffix(n, "-base.ckpt") {
			return true, nil
		}
	}
	return false, nil
}

// Load replays base + increments in order with Strict validation; the
// newest version of each entity wins. It returns the surviving records and
// the newest watermark.
func (m *Manager) Load(slots int) (map[uint64][]uint64, uint64, error) {
	recs, wm, _, err := m.LoadWithReport(slots, Strict)
	return recs, wm, err
}

// LoadWithReport replays base + increments in order. In Salvage mode a
// corrupt file and everything after it are quarantined (renamed with a
// .quarantine suffix) and the load resumes from the last valid prefix.
func (m *Manager) LoadWithReport(slots int, mode LoadMode) (map[uint64][]uint64, uint64, *LoadReport, error) {
	names, err := m.files()
	if err != nil {
		return nil, 0, nil, err
	}
	rep := &LoadReport{Mode: mode}
	recs := make(map[uint64][]uint64)
	var watermark uint64
	for i, name := range names {
		// Stage each file so a corrupt one contributes nothing.
		var staged [][]uint64
		wm, err := ReadFile(name, func(rec []uint64) error {
			if len(rec) != slots {
				return fmt.Errorf("checkpoint: %s: record width %d, want %d: %w",
					name, len(rec), slots, ErrCorrupt)
			}
			staged = append(staged, rec)
			return nil
		})
		if err != nil {
			if mode == Strict || !errors.Is(err, ErrCorrupt) {
				return nil, 0, nil, err
			}
			// Salvage: this file and all later ones are unusable — an
			// increment after a hole could double-apply or lose updates.
			for _, q := range names[i:] {
				if qerr := os.Rename(q, q+".quarantine"); qerr != nil {
					return nil, 0, nil, fmt.Errorf("checkpoint: quarantine: %w", qerr)
				}
				rep.QuarantinedFiles = append(rep.QuarantinedFiles, q)
			}
			if err := syncDir(m.dir); err != nil {
				return nil, 0, nil, err
			}
			break
		}
		for _, rec := range staged {
			recs[rec[0]] = rec // slot 0 = entity id
		}
		if wm > watermark {
			watermark = wm
		}
		rep.FilesLoaded = append(rep.FilesLoaded, name)
	}
	rep.Records = len(recs)
	rep.Watermark = watermark
	return recs, watermark, rep, nil
}

// GC deletes checkpoint files superseded by the newest base: every file
// with a lower sequence number. It returns how many files were removed and
// the newest base's watermark (0 if no base exists) — the archive can be
// truncated below that LSN once GC succeeds.
func (m *Manager) GC() (removed int, baseWatermark uint64, err error) {
	names, err := m.files()
	if err != nil {
		return 0, 0, err
	}
	baseIdx := -1
	for i, n := range names {
		if strings.HasSuffix(n, "-base.ckpt") {
			baseIdx = i
		}
	}
	if baseIdx < 0 {
		return 0, 0, nil
	}
	baseWatermark, err = ReadFile(names[baseIdx], func([]uint64) error { return nil })
	if err != nil {
		// A corrupt newest base must stay recoverable via older files.
		return 0, 0, err
	}
	for _, n := range names[:baseIdx] {
		if err := os.Remove(n); err != nil {
			return removed, baseWatermark, fmt.Errorf("checkpoint: gc: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(m.dir); err != nil {
			return removed, baseWatermark, err
		}
	}
	return removed, baseWatermark, nil
}

// Compact rewrites the directory as a single base checkpoint containing the
// merged state, then removes the old files.
func (m *Manager) Compact(slots int) error {
	recs, watermark, err := m.Load(slots)
	if err != nil {
		return err
	}
	old, err := m.files()
	if err != nil {
		return err
	}
	w, err := m.Create(slots, watermark, true)
	if err != nil {
		return err
	}
	// Deterministic order for reproducible files.
	ids := make([]uint64, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := w.Add(recs[id]); err != nil {
			w.abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	for _, name := range old {
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("checkpoint: compact cleanup: %w", err)
		}
	}
	return nil
}
