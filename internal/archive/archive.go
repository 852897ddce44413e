// Package archive implements AIM's persistent event archive — a production
// feature the paper describes (§7, and footnote 1: the archive of recent
// events is consulted when all top-N values of a sliding window expire, and
// it backs durability together with incremental checkpointing).
//
// The archive is an append-only log of fixed-size CDR frames, segmented
// into files of a configurable event capacity. Every appended event gets a
// monotonically increasing log sequence number (LSN = its position in the
// log), which the checkpoint/recovery machinery uses as the replay
// watermark. Each segment carries an in-memory per-entity index (rebuilt on
// open) so per-entity history scans — the exact-sliding-window path — do
// not read unrelated events.
//
// On-disk format (revision 2): a 16 B header [magic "AIMSEG2\0" | firstLSN
// u64], then frames of [lsn u64 | 64 B event | crc32c u32], the CRC
// covering the preceding 72 bytes. A file without the magic is an
// unsupported format. Recovery runs in one of two modes: Strict fails on
// any inconsistency, Salvage truncates a torn tail at the last valid frame,
// quarantines unreachable segments, and reports exactly what it dropped.
//
// The archive is fail-stop: the first write, rotate or sync error makes it
// refuse every later append and sync with ErrFailed, so the log on disk is
// never extended past a failure and recovery (a restart, Salvage) decides
// what survived.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/crashpoint"
	"repro/internal/event"
	"repro/internal/obs"
)

const (
	// frameSize is one on-disk record: LSN, 64 B event, CRC32C over both.
	frameSize = event.WireSize + 12
	// headerSize is the segment header: magic + firstLSN.
	headerSize = 16
	// crcOffset is where the frame CRC lives within a frame.
	crcOffset = event.WireSize + 8
)

var segMagic = [8]byte{'A', 'I', 'M', 'S', 'E', 'G', '2', 0}

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultSegmentEvents is the default segment capacity.
const DefaultSegmentEvents = 1 << 16

// RecoveryMode selects how Open treats on-disk inconsistencies.
type RecoveryMode int

const (
	// Strict fails on any checksum mismatch, torn tail, or LSN gap. A
	// cleanly shut down archive always opens in Strict.
	Strict RecoveryMode = iota
	// Salvage truncates a torn tail at the last valid frame, quarantines
	// segments beyond the valid prefix (renamed *.quarantine, never
	// deleted), and records what it dropped in the RecoveryReport.
	Salvage
)

func (m RecoveryMode) String() string {
	if m == Salvage {
		return "salvage"
	}
	return "strict"
}

// ErrCorrupt is wrapped by every corruption error Strict recovery returns,
// so callers can decide to retry with Salvage.
var ErrCorrupt = errors.New("archive: corrupt")

// ErrFailed is returned by every append and sync after the archive's first
// write, rotate or sync error, wrapped together with that first cause. A
// failed archive never accepts another event: what the failing append left
// on disk is settled by recovery, not by a retry.
var ErrFailed = errors.New("archive: failed")

// RecoveryReport says what Open found and (in Salvage mode) dropped.
type RecoveryReport struct {
	Mode RecoveryMode
	// Segments is the number of live segments after recovery.
	Segments int
	// FramesDropped counts frames lost to tail truncation (whole or torn).
	FramesDropped int
	// BytesTruncated is how many bytes Salvage cut from torn segments.
	BytesTruncated int64
	// QuarantinedFiles are segments renamed aside (unreachable after a
	// mid-log truncation or unreadable headers).
	QuarantinedFiles []string
}

// Clean reports whether recovery found nothing to repair.
func (r RecoveryReport) Clean() bool {
	return r.FramesDropped == 0 && r.BytesTruncated == 0 && len(r.QuarantinedFiles) == 0
}

// Archive is an append-only, segmented event log.
type Archive struct {
	dir         string
	segmentCap  int
	mu          sync.Mutex
	segments    []*segment
	active      *segment
	nextLSN     uint64
	syncOnWrite bool
	report      RecoveryReport
	failed      error // sticky; wraps ErrFailed and the first write/sync error

	met archiveMetrics
}

type segment struct {
	path     string
	firstLSN uint64
	n        int
	file     *os.File // nil when sealed
	// byEntity maps caller entity -> frame ordinals within the segment.
	byEntity map[uint64][]int32
}

// archiveMetrics are the archive's obs instruments; all fields are nil (and
// therefore free) when Options.Metrics is nil.
type archiveMetrics struct {
	fsync       *obs.Histogram
	segments    *obs.Gauge
	salvFrames  *obs.Counter
	salvSegs    *obs.Counter
	gcSegments  *obs.Counter
	appendBytes *obs.Counter
}

// Options configures an Archive.
type Options struct {
	// SegmentEvents caps events per segment file (default 65536).
	SegmentEvents int
	// SyncOnWrite fsyncs after every append (durable but slow); when
	// false, durability is bounded by Sync/rotation (the paper's
	// "zero-copy logging" trades the same bound).
	SyncOnWrite bool
	// Recovery selects Strict (default) or Salvage handling of on-disk
	// inconsistencies at Open.
	Recovery RecoveryMode
	// Metrics, when set, registers the archive's instruments (fsync
	// latency, segment count, salvage drops) on the registry.
	Metrics *obs.Registry
}

// Open creates or recovers an archive in dir.
func Open(dir string, opts Options) (*Archive, error) {
	if opts.SegmentEvents <= 0 {
		opts.SegmentEvents = DefaultSegmentEvents
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := &Archive{
		dir:         dir,
		segmentCap:  opts.SegmentEvents,
		syncOnWrite: opts.SyncOnWrite,
		report:      RecoveryReport{Mode: opts.Recovery},
	}
	if reg := opts.Metrics; reg != nil {
		a.met = archiveMetrics{
			fsync: reg.LatencyHistogram("aim_archive_fsync_seconds",
				"Latency of archive segment fsyncs."),
			segments: reg.Gauge("aim_archive_segments",
				"Live archive segment files."),
			salvFrames: reg.Counter("aim_archive_salvage_frames_dropped_total",
				"Frames dropped by Salvage recovery (torn tails and quarantined segments)."),
			salvSegs: reg.Counter("aim_archive_salvage_segments_dropped_total",
				"Whole segments quarantined by Salvage recovery."),
			gcSegments: reg.Counter("aim_archive_segments_gc_total",
				"Segments removed by checkpoint-driven archive truncation."),
			appendBytes: reg.Counter("aim_archive_append_bytes_total",
				"Bytes appended to the archive."),
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	sort.Strings(names)
	// Drop zero-length segments in any mode: a crash between segment
	// creation and the header write leaves an empty file that holds no
	// committed frames, would read as a bogus LSN gap, and whose name
	// collides with the next rotation.
	live := names[:0]
	for _, name := range names {
		if segBytes(name) == 0 {
			if err := os.Remove(name); err != nil {
				return nil, fmt.Errorf("archive: remove empty segment: %w", err)
			}
			continue
		}
		live = append(live, name)
	}
	names = live
	if err := a.recoverSegments(names, opts.Recovery); err != nil {
		return nil, err
	}
	// Reopen the last segment for appends if it has room.
	if n := len(a.segments); n > 0 {
		last := a.segments[n-1]
		if last.n < a.segmentCap {
			f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("archive: reopen %s: %w", last.path, err)
			}
			last.file = f
			a.active = last
		}
	}
	a.met.segments.Set(int64(len(a.segments)))
	return a, nil
}

// recoverSegments validates the segment chain in order, enforcing frame
// checksums and LSN contiguity, repairing (Salvage) or rejecting (Strict)
// anything inconsistent.
func (a *Archive) recoverSegments(names []string, mode RecoveryMode) error {
	var expect uint64
	haveExpect := false
	for i, name := range names {
		seg, truncAt, dropped, err := parseSegment(name)
		bad := err != nil
		if !bad && haveExpect && seg.firstLSN != expect {
			err = fmt.Errorf("%w: %s: LSN gap (starts at %d, want %d)", ErrCorrupt, name, seg.firstLSN, expect)
			bad = true
		}
		if bad {
			if mode == Strict {
				return err
			}
			// Salvage: the valid log ends here. Quarantine this segment
			// and every later one.
			return a.quarantineFrom(names[i:], dropped+countFrames(names[i+1:]))
		}
		if truncAt >= 0 {
			// Torn tail within this segment.
			if mode == Strict {
				return fmt.Errorf("%w: %s: torn tail (%d trailing bytes)", ErrCorrupt, name, segBytes(name)-truncAt)
			}
			cut := segBytes(name) - truncAt
			if truncAt == 0 {
				// The whole file is a torn header: keeping a zero-length
				// shell would collide with the next rotation, so remove it
				// outright.
				if err := os.Remove(name); err != nil {
					return fmt.Errorf("archive: salvage remove %s: %w", name, err)
				}
			} else {
				if err := os.Truncate(name, truncAt); err != nil {
					return fmt.Errorf("archive: salvage truncate %s: %w", name, err)
				}
				a.segments = append(a.segments, seg)
				a.nextLSN = seg.firstLSN + uint64(seg.n)
			}
			a.report.BytesTruncated += cut
			a.report.FramesDropped += dropped
			a.met.salvFrames.Add(uint64(dropped))
			a.report.Segments = len(a.segments)
			// Segments beyond a truncated one are past the end of the log.
			return a.quarantineFrom(names[i+1:], countFrames(names[i+1:]))
		}
		a.segments = append(a.segments, seg)
		a.nextLSN = seg.firstLSN + uint64(seg.n)
		expect, haveExpect = a.nextLSN, true
	}
	a.report.Segments = len(a.segments)
	return nil
}

// quarantineFrom renames the given segment files aside and accounts them in
// the recovery report. Files are renamed, never deleted, so an operator can
// inspect what Salvage dropped.
func (a *Archive) quarantineFrom(names []string, frames int) error {
	for _, name := range names {
		q := name + ".quarantine"
		if err := os.Rename(name, q); err != nil {
			return fmt.Errorf("archive: quarantine %s: %w", name, err)
		}
		a.report.QuarantinedFiles = append(a.report.QuarantinedFiles, q)
		a.met.salvSegs.Inc()
	}
	a.report.FramesDropped += frames
	a.met.salvFrames.Add(uint64(frames))
	a.report.Segments = len(a.segments)
	return syncDir(a.dir)
}

// countFrames estimates (upper bound) how many frames live in the given
// segment files, for salvage drop reporting.
func countFrames(names []string) int {
	total := 0
	for _, name := range names {
		sz := segBytes(name)
		if sz > headerSize {
			total += int((sz - headerSize + frameSize - 1) / frameSize)
		}
	}
	return total
}

func segBytes(name string) int64 {
	fi, err := os.Stat(name)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// parseSegment reads one segment and rebuilds its entity index. It returns
// truncAt >= 0 (a byte offset) when the file has a torn but salvageable
// tail, with dropped = the number of frames beyond the valid prefix; a file
// shorter than the header is a torn header (truncAt 0). A non-nil error
// means the segment is unusable from the start: an unreadable file, or one
// without the segment magic (ErrCorrupt).
func parseSegment(path string) (seg *segment, truncAt int64, dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, 0, fmt.Errorf("archive: %w", err)
	}
	seg = &segment{path: path, byEntity: make(map[uint64][]int32)}
	if len(data) < headerSize {
		return seg, 0, 0, nil
	}
	if [8]byte(data[:8]) != segMagic {
		return nil, -1, 0, fmt.Errorf("%w: %s: unsupported segment format (magic %q)", ErrCorrupt, path, data[:8])
	}
	seg.firstLSN = binary.LittleEndian.Uint64(data[8:])
	body := data[headerSize:]
	total := (len(body) + frameSize - 1) / frameSize // frames incl. a torn tail
	for i := 0; (i+1)*frameSize <= len(body); i++ {
		f := body[i*frameSize:]
		if verifyFrame(f, path, i, seg.firstLSN+uint64(i)) != nil {
			return seg, int64(headerSize + i*frameSize), total - i, nil
		}
		caller := binary.LittleEndian.Uint64(f[8:]) // Event.Caller is frame word 0
		seg.byEntity[caller] = append(seg.byEntity[caller], int32(i))
		seg.n++
	}
	if seg.n*frameSize != len(body) {
		// Torn partial frame at the tail (all complete frames were valid).
		return seg, int64(headerSize + seg.n*frameSize), total - seg.n, nil
	}
	return seg, -1, 0, nil
}

// verifyFrame checks frame ordinal ord of segment path: its CRC, then that
// it carries LSN want. A mismatch wraps ErrCorrupt.
func verifyFrame(f []byte, path string, ord int, want uint64) error {
	if crc32.Checksum(f[:crcOffset], castagnoli) != binary.LittleEndian.Uint32(f[crcOffset:]) {
		return fmt.Errorf("%w: %s: frame %d checksum", ErrCorrupt, path, ord)
	}
	if lsn := binary.LittleEndian.Uint64(f); lsn != want {
		return fmt.Errorf("%w: %s: frame %d has lsn %d, want %d", ErrCorrupt, path, ord, lsn, want)
	}
	return nil
}

// Report returns what recovery found (and repaired) at Open.
func (a *Archive) Report() RecoveryReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.report
}

// AppendBatch logs a batch of events as one group append — one buffered
// write per touched segment (batches split across a rotation) plus at most
// one fsync when SyncOnWrite — and returns the LSN of the first event and
// len(evs). After an error the archive accepts nothing more: that append
// and every later one or Sync return ErrFailed (count 0), and the events
// of the failing append are in doubt until recovery reads the disk.
//
// AppendBatch is the archive's only append path; a lone event is a batch of
// one. Every event gets its own CRC-framed slot and consecutive LSN, so a
// crash mid-group tears at most the trailing frame of the write and Salvage
// recovery truncates to a whole-event boundary.
func (a *Archive) AppendBatch(evs []event.Event) (uint64, int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	first := a.nextLSN
	if a.failed != nil {
		return first, 0, a.failed
	}
	for i := 0; i < len(evs); {
		if a.active == nil || a.active.n >= a.segmentCap {
			if err := a.rotateLocked(); err != nil {
				return first, 0, a.fail(err)
			}
		}
		chunk := evs[i:min(i+a.segmentCap-a.active.n, len(evs))]
		buf := make([]byte, len(chunk)*frameSize)
		for k := range chunk {
			f := buf[k*frameSize:]
			binary.LittleEndian.PutUint64(f, a.nextLSN+uint64(k))
			chunk[k].Encode(f[8:])
			binary.LittleEndian.PutUint32(f[crcOffset:], crc32.Checksum(f[:crcOffset], castagnoli))
		}
		if err := a.writeGroup(buf); err != nil {
			return first, 0, a.fail(fmt.Errorf("archive: append batch: %w", err))
		}
		a.met.appendBytes.Add(uint64(len(buf)))
		for k := range chunk {
			a.active.byEntity[chunk[k].Caller] = append(a.active.byEntity[chunk[k].Caller], int32(a.active.n))
			a.active.n++
		}
		a.nextLSN += uint64(len(chunk))
		i += len(chunk)
	}
	if a.syncOnWrite && a.active != nil {
		err := crashpoint.Hit(crashpoint.ArchiveAppendBeforeSync)
		if err == nil {
			err = a.syncFile(a.active.file)
		}
		if err != nil {
			return first, 0, a.fail(fmt.Errorf("archive: sync: %w", err))
		}
	}
	return first, len(evs), nil
}

// fail makes the archive fail-stop on cause and returns the sticky error.
func (a *Archive) fail(cause error) error {
	a.failed = fmt.Errorf("%w: %w", ErrFailed, cause)
	return a.failed
}

// writeGroup writes one chunk of a group append. Single-frame chunks take
// the writeFrame path (sharing its torn-write kill point); with crashpoints
// armed a multi-frame chunk goes out in two writes split mid-way through
// its LAST frame, with a kill point between them, so the harness can
// manufacture a group append whose whole-frame prefix is durable and whose
// tail frame is torn.
func (a *Archive) writeGroup(buf []byte) error {
	if len(buf) == frameSize {
		return a.writeFrame(buf)
	}
	if err := crashpoint.Hit(crashpoint.ArchiveAppendBeforeWrite); err != nil {
		return err
	}
	if crashpoint.Enabled() {
		cut := len(buf) - frameSize/2
		if _, err := a.active.file.Write(buf[:cut]); err != nil {
			return err
		}
		crashpoint.Hit(crashpoint.ArchiveAppendBatchTorn)
		_, err := a.active.file.Write(buf[cut:])
		return err
	}
	_, err := a.active.file.Write(buf)
	return err
}

// writeFrame writes one frame. With crashpoints armed the frame goes out in
// two halves with a kill point between them, so the harness can manufacture
// genuinely torn tails; otherwise it is a single write.
func (a *Archive) writeFrame(buf []byte) error {
	if err := crashpoint.Hit(crashpoint.ArchiveAppendBeforeWrite); err != nil {
		return err
	}
	if crashpoint.Enabled() {
		half := len(buf) / 2
		if _, err := a.active.file.Write(buf[:half]); err != nil {
			return err
		}
		crashpoint.Hit(crashpoint.ArchiveAppendTorn)
		_, err := a.active.file.Write(buf[half:])
		return err
	}
	_, err := a.active.file.Write(buf)
	return err
}

// rotateLocked seals the active segment and starts a new one. A non-nil
// active segment always holds an open file.
func (a *Archive) rotateLocked() error {
	if a.active != nil {
		if err := a.syncFile(a.active.file); err != nil {
			return fmt.Errorf("archive: seal sync: %w", err)
		}
		if err := a.active.file.Close(); err != nil {
			return fmt.Errorf("archive: seal close: %w", err)
		}
		a.active.file = nil
		a.active = nil
	}
	path := filepath.Join(a.dir, fmt.Sprintf("seg-%016d.log", a.nextLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: rotate: %w", err)
	}
	if err := crashpoint.Hit(crashpoint.ArchiveRotateAfterCreate); err != nil {
		f.Close()
		return fmt.Errorf("archive: rotate: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], a.nextLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("archive: rotate header: %w", err)
	}
	if err := syncDir(a.dir); err != nil {
		f.Close()
		return err
	}
	seg := &segment{path: path, firstLSN: a.nextLSN, file: f, byEntity: make(map[uint64][]int32)}
	a.segments = append(a.segments, seg)
	a.active = seg
	a.met.segments.Set(int64(len(a.segments)))
	return nil
}

// syncFile fsyncs f, feeding the fsync-latency histogram.
func (a *Archive) syncFile(f *os.File) error {
	var t0 time.Time
	if a.met.fsync != nil {
		t0 = time.Now()
	}
	err := f.Sync()
	a.met.fsync.ObserveSince(t0)
	return err
}

// syncDir makes directory-entry changes (creates, renames, removes)
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("archive: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("archive: sync dir: %w", err)
	}
	return nil
}

// Sync flushes the active segment to disk. It returns ErrFailed once any
// append, rotation or sync has failed.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed != nil {
		return a.failed
	}
	if a.active != nil {
		if err := a.syncFile(a.active.file); err != nil {
			return a.fail(fmt.Errorf("archive: sync: %w", err))
		}
	}
	return nil
}

// Close syncs and closes the archive. A failed archive is closed without
// a sync (its state on disk is recovery's to judge) and returns ErrFailed.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active == nil {
		return a.failed
	}
	f := a.active.file
	a.active.file, a.active = nil, nil
	err := a.failed
	if err == nil {
		err = a.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// NextLSN returns the LSN the next appended event will get.
func (a *Archive) NextLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextLSN
}

// Len returns the number of archived events.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.segments {
		n += s.n
	}
	return n
}

// FirstLSN returns the LSN of the oldest retained event (0 when empty).
func (a *Archive) FirstLSN() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.segments) == 0 {
		return a.nextLSN
	}
	return a.segments[0].firstLSN
}

// TruncateBelow removes whole sealed segments every frame of which has
// LSN < lsn — the checkpoint-retention GC: once a base checkpoint holds
// state through its watermark, the archive below it is dead weight. The
// newest segment is always kept (even if fully below the watermark) so the
// archive's next-LSN survives restarts. Returns the number of segments
// removed.
func (a *Archive) TruncateBelow(lsn uint64) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	removed := 0
	for len(a.segments) > 1 {
		s := a.segments[0]
		if s.file != nil || s.firstLSN+uint64(s.n) > lsn {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return removed, fmt.Errorf("archive: truncate: %w", err)
		}
		a.segments = a.segments[1:]
		removed++
		a.met.gcSegments.Inc()
		crashpoint.Hit(crashpoint.ArchiveTruncateMid)
	}
	a.met.segments.Set(int64(len(a.segments)))
	if removed > 0 {
		if err := syncDir(a.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// readFrame reads one frame of a segment (from disk; segments are the
// durable copy, no payload cache is kept).
func (s *segment) readFrame(ordinal int) (uint64, event.Event, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return 0, event.Event{}, err
	}
	defer f.Close()
	buf := make([]byte, frameSize)
	if _, err := f.ReadAt(buf, int64(headerSize+ordinal*frameSize)); err != nil {
		return 0, event.Event{}, err
	}
	lsn := s.firstLSN + uint64(ordinal)
	if err := verifyFrame(buf, s.path, ordinal, lsn); err != nil {
		return 0, event.Event{}, err
	}
	var ev event.Event
	if err := ev.Decode(buf[8:]); err != nil {
		return 0, ev, err
	}
	return lsn, ev, nil
}

// segSnap is an immutable view of one segment's committed extent, taken
// under the archive lock so Replay/ReadFrom can run concurrently with
// appends (a live append mutates segment.n; a tailing reader must only see
// the frame count that was committed when it looked).
type segSnap struct {
	path     string
	firstLSN uint64
	n        int
}

// snapshotSegments captures the committed extent of every segment.
func (a *Archive) snapshotSegments() []segSnap {
	a.mu.Lock()
	defer a.mu.Unlock()
	segs := make([]segSnap, len(a.segments))
	for i, s := range a.segments {
		segs[i] = segSnap{path: s.path, firstLSN: s.firstLSN, n: s.n}
	}
	return segs
}

// Replay invokes fn for every archived event with LSN >= fromLSN, in LSN
// order. This is the recovery tail-replay path, also safe to call against a
// live archive (log-shipping catch-up): the per-segment committed frame
// count is snapshotted under the lock, so frames appended — or torn —
// after the snapshot are never surfaced. Frame checksums are re-verified
// (the file may have rotted since Open).
func (a *Archive) Replay(fromLSN uint64, fn func(lsn uint64, ev event.Event) error) error {
	for _, s := range a.snapshotSegments() {
		if s.firstLSN+uint64(s.n) <= fromLSN {
			continue
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("archive: replay %s: %w", s.path, err)
		}
		if len(data) > headerSize+s.n*frameSize {
			data = data[:headerSize+s.n*frameSize]
		}
		for i := 0; headerSize+(i+1)*frameSize <= len(data); i++ {
			lsn := s.firstLSN + uint64(i)
			if lsn < fromLSN {
				continue
			}
			f := data[headerSize+i*frameSize:]
			if err := verifyFrame(f, s.path, i, lsn); err != nil {
				return fmt.Errorf("archive: replay: %w", err)
			}
			var ev event.Event
			if err := ev.Decode(f[8:]); err != nil {
				return err
			}
			if err := fn(lsn, ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// ErrTruncated reports a ReadFrom below the retention floor: the requested
// LSN was garbage-collected by checkpoint-driven truncation, so the log can
// no longer serve it. A follower hitting this must bootstrap from a
// checkpoint instead of the log.
var ErrTruncated = errors.New("archive: read below retention floor")

// ReadFrom reads up to max committed events starting at fromLSN, in LSN
// order, re-verifying frame checksums. It returns the events plus the
// archive's committed frontier (the next LSN a future append will get) as
// observed at read time — the pair a log-shipping tail loop needs: an empty
// batch with frontier == fromLSN means the reader is caught up.
//
// ReadFrom is safe against concurrent appends and rotations: the segment
// extent is snapshotted under the archive lock, and only frames below the
// committed count are read, so a torn tail (in-flight or crash-truncated
// write) is never surfaced — a tailing follower stops cleanly at the last
// committed frame. One call reads from a single segment; callers loop to
// cross segment boundaries (the returned batch simply ends early).
//
// Reading below FirstLSN returns ErrTruncated: retention GC removed the
// segment and the log cannot serve the gap.
func (a *Archive) ReadFrom(fromLSN uint64, max int) ([]event.Event, uint64, error) {
	if max <= 0 {
		max = 1
	}
	a.mu.Lock()
	frontier := a.nextLSN
	if fromLSN >= frontier {
		a.mu.Unlock()
		return nil, frontier, nil
	}
	var path string
	var firstLSN uint64
	var n int
	found := false
	for _, s := range a.segments {
		if s.firstLSN <= fromLSN && fromLSN < s.firstLSN+uint64(s.n) {
			path, firstLSN, n, found = s.path, s.firstLSN, s.n, true
			break
		}
	}
	a.mu.Unlock()
	if !found {
		return nil, frontier, fmt.Errorf("%w: lsn %d (floor %d)", ErrTruncated, fromLSN, a.FirstLSN())
	}
	ord := int(fromLSN - firstLSN)
	count := min(max, n-ord)
	f, err := os.Open(path)
	if err != nil {
		return nil, frontier, fmt.Errorf("archive: read %s: %w", path, err)
	}
	defer f.Close()
	buf := make([]byte, count*frameSize)
	if _, err := f.ReadAt(buf, int64(headerSize+ord*frameSize)); err != nil {
		return nil, frontier, fmt.Errorf("archive: read %s: %w", path, err)
	}
	evs := make([]event.Event, count)
	for i := 0; i < count; i++ {
		fr := buf[i*frameSize:]
		if err := verifyFrame(fr, path, ord+i, fromLSN+uint64(i)); err != nil {
			return nil, frontier, fmt.Errorf("archive: read: %w", err)
		}
		if err := evs[i].Decode(fr[8:]); err != nil {
			return nil, frontier, err
		}
	}
	return evs, frontier, nil
}

// EntityHistory returns the archived events of one entity with timestamps
// in [fromTs, toTs], in log order — the exact-sliding-window lookup path.
func (a *Archive) EntityHistory(entityID uint64, fromTs, toTs int64) ([]event.Event, error) {
	a.mu.Lock()
	segs := append([]*segment(nil), a.segments...)
	a.mu.Unlock()
	var out []event.Event
	for _, s := range segs {
		ordinals := s.byEntity[entityID]
		for _, ord := range ordinals {
			_, ev, err := s.readFrame(int(ord))
			if err != nil {
				return nil, fmt.Errorf("archive: history: %w", err)
			}
			if ev.Timestamp >= fromTs && ev.Timestamp <= toTs {
				out = append(out, ev)
			}
		}
	}
	return out, nil
}
