// Package columnmap implements ColumnMap, the PAX-style storage layout of
// the AIM Analytics Matrix (§4.5 of the paper).
//
// Records are fixed-size slot arrays ([]uint64, see internal/schema). A
// ColumnMap groups a fixed number of records (the bucket size) into Buckets;
// within a bucket, data is organized column-major: all values of column c
// are contiguous. Analytical scans therefore enjoy columnar locality while
// single-record lookups remain O(#columns) with computable addresses. A hash
// index maps application entity-ids to dense record-ids.
//
// Setting the bucket size to 1 degrades ColumnMap to a row store; setting it
// to the expected table size makes it a pure column store — the tunability
// the paper highlights.
//
// The main is tiered (see tier.go): full buckets untouched for a configured
// number of merge epochs freeze into immutable per-column compressed chunks
// (internal/vec Chunk) that scans evaluate in place; a write to a frozen
// record thaws its bucket back to the hot tier first.
//
// Concurrency: one writer (the partition's RTA thread during merge steps)
// and any number of readers are supported. The entity index and the bucket
// directory — including each bucket's hot-slab/frozen-chunk representation —
// are guarded by an RWMutex; bucket payload slots are written only for
// records that concurrently reading ESP threads are guaranteed to find in
// the delta instead (the paper's Algorithm 3 invariant), so payload access
// is lock-free. Freeze and thaw swap a bucket's representation under the
// full lock: a reader sees either the retained hot slab or the immutable
// chunks, and both hold correct values for every record not shadowed by the
// delta. Per-bucket epochs are touched only by the writer thread and are
// deliberately never read by reader paths.
package columnmap

import (
	"fmt"
	"sync"

	"repro/internal/vec"
)

// DefaultBucketSize is the paper's default: the largest power of two such
// that a bucket of ~3 KB records fits in a 10 MB L3 cache.
const DefaultBucketSize = 3072

// bucketState is one directory entry: exactly one of data (hot) or frozen
// (cold) is non-nil. epoch is the merge epoch of the bucket's last write;
// it is read and written only by the single writer thread.
type bucketState struct {
	data   []uint64
	frozen *FrozenBucket
	epoch  uint64
}

// ColumnMap is a PAX-layout table of fixed-size records.
type ColumnMap struct {
	slots      int // columns per record
	bucketSize int // records per bucket

	mu      sync.RWMutex
	buckets []bucketState
	index   map[uint64]uint32 // entity id -> record id
	n       int               // number of records

	// epoch is the merge-epoch clock (AdvanceEpoch); writer thread only.
	epoch uint64
	// hints are the per-column compression hints (SetColHints); immutable
	// after setup.
	hints []vec.Hint
	// thawCounts[b] counts bucket b's thaws, saturating; FreezeCold backs off
	// on it. Grown only by a thaw, so a bucket past its end never thawed.
	// Writer thread only.
	thawCounts []uint8

	// Tier accounting, guarded by mu.
	freezes   uint64
	thaws     uint64
	coldBytes int64
	encChunks [vec.NumEnc]int64
}

// New returns an empty ColumnMap for records of the given slot count.
// bucketSize <= 0 selects DefaultBucketSize.
func New(slots, bucketSize int) *ColumnMap {
	if slots <= 0 {
		panic(fmt.Sprintf("columnmap: invalid slots %d", slots))
	}
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	return &ColumnMap{
		slots:      slots,
		bucketSize: bucketSize,
		index:      make(map[uint64]uint32),
	}
}

// Slots returns the number of columns per record.
func (cm *ColumnMap) Slots() int { return cm.slots }

// BucketSize returns the number of records per bucket.
func (cm *ColumnMap) BucketSize() int { return cm.bucketSize }

// Len returns the number of records.
func (cm *ColumnMap) Len() int {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	return cm.n
}

// Lookup returns the record id for an entity id.
func (cm *ColumnMap) Lookup(entityID uint64) (uint32, bool) {
	cm.mu.RLock()
	rid, ok := cm.index[entityID]
	cm.mu.RUnlock()
	return rid, ok
}

// Insert appends rec as a new record and returns its record id. The entity
// id is taken from slot 0. It fails if the entity already exists or the
// record has the wrong width.
func (cm *ColumnMap) Insert(rec []uint64) (uint32, error) {
	if len(rec) != cm.slots {
		return 0, fmt.Errorf("columnmap: record has %d slots, want %d", len(rec), cm.slots)
	}
	entityID := rec[0]
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if _, dup := cm.index[entityID]; dup {
		return 0, fmt.Errorf("columnmap: entity %d already exists", entityID)
	}
	rid := uint32(cm.n)
	b, off := cm.n/cm.bucketSize, cm.n%cm.bucketSize
	if b == len(cm.buckets) {
		cm.buckets = append(cm.buckets, bucketState{
			data: make([]uint64, cm.slots*cm.bucketSize),
		})
	}
	bucket := cm.buckets[b].data
	for c := 0; c < cm.slots; c++ {
		bucket[c*cm.bucketSize+off] = rec[c]
	}
	cm.buckets[b].epoch = cm.epoch
	cm.index[entityID] = rid
	cm.n++
	return rid, nil
}

// Upsert inserts rec if its entity is new, otherwise overwrites the existing
// record in place. This is the merge-step write path.
func (cm *ColumnMap) Upsert(rec []uint64) error {
	if len(rec) != cm.slots {
		return fmt.Errorf("columnmap: record has %d slots, want %d", len(rec), cm.slots)
	}
	if rid, ok := cm.Lookup(rec[0]); ok {
		cm.scatter(rid, rec)
		return nil
	}
	_, err := cm.Insert(rec)
	return err
}

// scatter writes rec into the slots of an existing record id, thawing the
// bucket back to the hot tier first if it is frozen.
func (cm *ColumnMap) scatter(rid uint32, rec []uint64) {
	b, off := int(rid)/cm.bucketSize, int(rid)%cm.bucketSize
	cm.mu.RLock()
	data, frozen := cm.buckets[b].data, cm.buckets[b].frozen
	cm.mu.RUnlock()
	if frozen != nil {
		data = cm.thawBucket(b, frozen)
	}
	for c := 0; c < cm.slots; c++ {
		data[c*cm.bucketSize+off] = rec[c]
	}
	// Writer thread only; reader paths never touch epoch.
	cm.buckets[b].epoch = cm.epoch
}

// Gather copies the record with the given record id into dst, which must
// have exactly Slots() elements.
func (cm *ColumnMap) Gather(rid uint32, dst []uint64) error {
	if len(dst) != cm.slots {
		return fmt.Errorf("columnmap: dst has %d slots, want %d", len(dst), cm.slots)
	}
	cm.mu.RLock()
	if int(rid) >= cm.n {
		cm.mu.RUnlock()
		return fmt.Errorf("columnmap: record id %d out of range (%d records)", rid, cm.n)
	}
	b, off := int(rid)/cm.bucketSize, int(rid)%cm.bucketSize
	data, frozen := cm.buckets[b].data, cm.buckets[b].frozen
	cm.mu.RUnlock()
	if frozen != nil {
		for c := 0; c < cm.slots; c++ {
			dst[c] = frozen.Value(c, off)
		}
		return nil
	}
	for c := 0; c < cm.slots; c++ {
		dst[c] = data[c*cm.bucketSize+off]
	}
	return nil
}

// GatherEntity is Lookup followed by Gather.
func (cm *ColumnMap) GatherEntity(entityID uint64, dst []uint64) (bool, error) {
	rid, ok := cm.Lookup(entityID)
	if !ok {
		return false, nil
	}
	return true, cm.Gather(rid, dst)
}

// Value returns a single slot of a record without materializing the rest —
// the computable-address point lookup the paper describes. Frozen buckets
// answer from the chunk's random-access path.
func (cm *ColumnMap) Value(rid uint32, col int) uint64 {
	b, off := int(rid)/cm.bucketSize, int(rid)%cm.bucketSize
	cm.mu.RLock()
	data, frozen := cm.buckets[b].data, cm.buckets[b].frozen
	cm.mu.RUnlock()
	if frozen != nil {
		return frozen.Value(col, off)
	}
	return data[col*cm.bucketSize+off]
}

// Bucket is a read-only view of one bucket used by scans: either a hot slab
// (Col) or a frozen compressed bucket (Frozen).
type Bucket struct {
	data       []uint64
	frozen     *FrozenBucket
	bucketSize int
	// N is the number of valid records in the bucket.
	N int
	// Base is the record id of the bucket's first record.
	Base uint32
}

// Col returns the column-c value slice of the bucket (N valid entries).
// Only valid for hot buckets; scans must route frozen buckets (Frozen() !=
// nil) through the chunk kernels or decompress instead.
func (b Bucket) Col(c int) []uint64 {
	off := c * b.bucketSize
	return b.data[off : off+b.N]
}

// Frozen returns the bucket's compressed representation, or nil if hot.
func (b Bucket) Frozen() *FrozenBucket { return b.frozen }

// Snapshot returns views of all buckets as of the call. The scan step
// iterates the snapshot; records inserted afterwards are not visible, which
// is exactly the consistency the delta/main design requires (inserts only
// happen during merge steps, which never overlap scan steps on a partition).
// A bucket frozen or thawed after the call keeps serving the snapshotted
// representation: hot slabs are retained by the view and frozen chunks are
// immutable, and any record rewritten meanwhile is delta-shadowed for
// readers of the snapshot's vintage.
func (cm *ColumnMap) Snapshot() []Bucket {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	out := make([]Bucket, 0, len(cm.buckets))
	remaining := cm.n
	for i := range cm.buckets {
		n := cm.bucketSize
		if remaining < n {
			n = remaining
		}
		out = append(out, Bucket{
			data:       cm.buckets[i].data,
			frozen:     cm.buckets[i].frozen,
			bucketSize: cm.bucketSize,
			N:          n,
			Base:       uint32(i * cm.bucketSize),
		})
		remaining -= n
	}
	return out
}

// IndexEntry is one entity-id → record-id mapping from IndexSnapshot.
type IndexEntry struct {
	Entity uint64
	RID    uint32
}

// IndexSnapshot returns every (entity id, record id) pair as of the call.
// It lets a reader decide per record — before touching any payload words —
// whether the Algorithm 3 invariant makes a lock-free Gather safe, or the
// record must be read from a delta instead.
func (cm *ColumnMap) IndexSnapshot() []IndexEntry {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	out := make([]IndexEntry, 0, len(cm.index))
	for id, rid := range cm.index {
		out = append(out, IndexEntry{Entity: id, RID: rid})
	}
	return out
}

// MemoryBytes reports the approximate payload memory in use: full slabs for
// hot buckets plus compressed chunk payloads for frozen ones.
func (cm *ColumnMap) MemoryBytes() int64 {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	hot := 0
	for i := range cm.buckets {
		if cm.buckets[i].frozen == nil {
			hot++
		}
	}
	return int64(hot)*int64(cm.slots*cm.bucketSize)*8 + cm.coldBytes
}
