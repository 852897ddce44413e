package columnmap

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// The cold tier. Full buckets whose records haven't been written for a
// configured number of merge epochs freeze into a FrozenBucket: one
// immutable compressed chunk per column (see internal/vec). Scans evaluate
// predicates and aggregates over the chunks in place; point reads use the
// chunks' random-access path; a delta write to a frozen record thaws the
// whole bucket back to a hot slab before the write lands.
//
// All tier transitions run on the single writer thread (the partition's RTA
// merge loop). AdvanceEpoch ticks the aging clock once per merge step;
// FreezeCold compresses candidates outside the lock (safe: no other writer
// exists) and installs each result under the full lock, so concurrent
// readers atomically switch from the hot slab to the identical frozen image.

// FrozenBucket is the immutable compressed form of one full bucket.
type FrozenBucket struct {
	chunks []vec.Chunk
	n      int   // records (always the map's bucket size)
	bytes  int64 // compressed payload bytes across all chunks
}

// Chunk returns column c's compressed chunk.
func (fb *FrozenBucket) Chunk(c int) *vec.Chunk { return &fb.chunks[c] }

// Value returns record off's value in column c (random access).
func (fb *FrozenBucket) Value(c, off int) uint64 {
	return vec.ChunkValue(&fb.chunks[c], off)
}

// DecompressCol materializes column c into dst (grown if needed) — the
// pooled-scratch fallback for scan shapes without a direct chunk kernel.
func (fb *FrozenBucket) DecompressCol(c int, dst []uint64) []uint64 {
	return vec.Decompress(&fb.chunks[c], dst)
}

// SetColHints installs per-column compression hints (schema value types).
// Columns beyond the slice — and every column when hints were never set —
// compress with the unsigned default, which always round-trips bit-exactly;
// hints only improve encoding choice and direct-kernel coverage. Must be
// called before concurrent use.
func (cm *ColumnMap) SetColHints(hints []vec.Hint) {
	cm.hints = append([]vec.Hint(nil), hints...)
}

// AdvanceEpoch ticks the merge-epoch clock. Writer thread only; the
// partition calls it once per merge step.
func (cm *ColumnMap) AdvanceEpoch() {
	cm.epoch++
}

// maxThawBackoff caps the thaw-count backoff: a bucket that keeps thawing
// waits at most coldAfter << maxThawBackoff idle epochs before it freezes.
const maxThawBackoff = 10

// FreezeCold freezes up to maxFreeze (0 = unlimited) full hot buckets that
// have gone unwritten long enough. A bucket never thawed needs coldAfter
// idle epochs; one thawed t times needs coldAfter << min(t, maxThawBackoff),
// so a bucket whose writes keep thawing it stops paying a freeze per thaw.
// coldAfter 0 stays eager whatever the thaw count: it freezes every full
// bucket not written in the current epoch. Returns the number of buckets
// frozen. Writer thread only.
func (cm *ColumnMap) FreezeCold(coldAfter uint64, maxFreeze int) int {
	cm.mu.RLock()
	full := cm.n / cm.bucketSize
	var cands []int
	for i := 0; i < full; i++ {
		// epoch and thawCounts are safe to read here: only this (writer)
		// thread writes them.
		idle := coldAfter
		if i < len(cm.thawCounts) {
			idle <<= min(cm.thawCounts[i], maxThawBackoff)
		}
		if cm.buckets[i].frozen == nil && cm.buckets[i].epoch+idle < cm.epoch {
			cands = append(cands, i)
			if maxFreeze > 0 && len(cands) >= maxFreeze {
				break
			}
		}
	}
	cm.mu.RUnlock()
	for _, i := range cands {
		cm.freezeBucket(i)
	}
	return len(cands)
}

// freezeBucket compresses bucket i's columns (lock-free: this thread is the
// only writer) and swaps the frozen image in under the full lock.
func (cm *ColumnMap) freezeBucket(i int) {
	data := cm.buckets[i].data
	fb := &FrozenBucket{
		chunks: make([]vec.Chunk, cm.slots),
		n:      cm.bucketSize,
	}
	for c := 0; c < cm.slots; c++ {
		hint := vec.HintUint
		if c < len(cm.hints) {
			hint = cm.hints[c]
		}
		col := data[c*cm.bucketSize : (c+1)*cm.bucketSize]
		fb.chunks[c] = vec.Compress(col, cm.bucketSize, hint)
		fb.bytes += fb.chunks[c].Bytes()
	}
	cm.mu.Lock()
	cm.buckets[i].data = nil
	cm.buckets[i].frozen = fb
	cm.freezes++
	cm.coldBytes += fb.bytes
	for c := range fb.chunks {
		cm.encChunks[fb.chunks[c].Enc]++
	}
	cm.mu.Unlock()
}

// thawBucket decompresses a frozen bucket into a fresh hot slab and installs
// it under the full lock, returning the slab for the triggering write.
// Readers that captured the frozen image keep a correct view: the chunks are
// immutable and the record about to be rewritten is delta-shadowed.
func (cm *ColumnMap) thawBucket(b int, fb *FrozenBucket) []uint64 {
	if fb.n != cm.bucketSize {
		panic(fmt.Sprintf("columnmap: frozen bucket has %d records, want %d", fb.n, cm.bucketSize))
	}
	data := make([]uint64, cm.slots*cm.bucketSize)
	for c := 0; c < cm.slots; c++ {
		vec.Decompress(&fb.chunks[c], data[c*cm.bucketSize:(c+1)*cm.bucketSize])
	}
	if b >= len(cm.thawCounts) {
		cm.thawCounts = append(cm.thawCounts, make([]uint8, b+1-len(cm.thawCounts))...)
	}
	if cm.thawCounts[b] < math.MaxUint8 {
		cm.thawCounts[b]++
	}
	cm.mu.Lock()
	cm.buckets[b].data = data
	cm.buckets[b].frozen = nil
	cm.thaws++
	cm.coldBytes -= fb.bytes
	for c := range fb.chunks {
		cm.encChunks[fb.chunks[c].Enc]--
	}
	cm.mu.Unlock()
	return data
}

// TierStats is a point-in-time summary of the hot/cold split.
type TierStats struct {
	HotBuckets  int
	ColdBuckets int
	// HotBytes is the hot slabs' payload; ColdBytes the compressed chunk
	// payload; ColdRawBytes what the frozen buckets would occupy hot (the
	// numerator of the compression ratio).
	HotBytes     int64
	ColdBytes    int64
	ColdRawBytes int64
	ColdChunks   int
	ColdRecords  int64
	Freezes      uint64
	Thaws        uint64
	// EncChunks counts currently-frozen chunks per encoding
	// (vec.EncRaw..EncRLE).
	EncChunks [vec.NumEnc]int64
}

// CompressionRatio returns ColdRawBytes/ColdBytes, or 1 with no cold data.
func (ts TierStats) CompressionRatio() float64 {
	if ts.ColdBytes <= 0 {
		return 1
	}
	return float64(ts.ColdRawBytes) / float64(ts.ColdBytes)
}

// Tier returns the current tier statistics. Safe from any goroutine.
func (cm *ColumnMap) Tier() TierStats {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	var ts TierStats
	for i := range cm.buckets {
		if fz := cm.buckets[i].frozen; fz != nil {
			ts.ColdBuckets++
			ts.ColdRecords += int64(fz.n)
		} else {
			ts.HotBuckets++
		}
	}
	bktBytes := int64(cm.slots*cm.bucketSize) * 8
	ts.HotBytes = int64(ts.HotBuckets) * bktBytes
	ts.ColdBytes = cm.coldBytes
	ts.ColdRawBytes = int64(ts.ColdBuckets) * bktBytes
	ts.ColdChunks = ts.ColdBuckets * cm.slots
	ts.Freezes = cm.freezes
	ts.Thaws = cm.thaws
	ts.EncChunks = cm.encChunks
	return ts
}
