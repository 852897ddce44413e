// Package core implements the AIM storage node — the paper's primary
// contribution (§4.6–§4.8): data partitions that pair a delta store with a
// ColumnMap main, the two-atomic-flag delta-switch protocol (Appendix A),
// the interleaved scan-step/merge-step loop of the RTA threads (Figure 6),
// shared-scan query batching, and the ESP service loop that gives every
// partition a single writer.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/columnmap"
	"repro/internal/crashpoint"
	"repro/internal/delta"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/schema"
)

// spinWait yields while cond stays false. The paper's Algorithms 6/7 use
// pure spin loops on dedicated cores; on shared or single-core hosts a pure
// Gosched spin can burn whole scheduler quanta, so after a short spin phase
// the wait backs off to microsecond sleeps. It reports whether the slow
// (sleeping) phase was entered, so callers can count delta-switch stalls.
func spinWait(cond func() bool) (slow bool) {
	for i := 0; i < 64; i++ {
		if cond() {
			return false
		}
		runtime.Gosched()
	}
	for !cond() {
		slow = true
		time.Sleep(5 * time.Microsecond)
	}
	return slow
}

// ErrVersionConflict is returned by ConditionalPut when the record changed
// since the caller's Get (§4.6 footnote 8). The ESP node reacts by
// restarting the single-row transaction for the current event.
var ErrVersionConflict = errors.New("core: conditional write version conflict")

// RecordFactory creates the initial Entity Record for a previously unseen
// entity, letting the application populate segmentation attributes.
type RecordFactory func(entityID uint64) schema.Record

// Partition is one horizontal partition of the Analytics Matrix within a
// storage node: a ColumnMap main plus two pre-allocated deltas. Exactly one
// ESP goroutine issues Get/Put/ApplyEvent, and exactly one RTA goroutine
// issues ScanSnapshot/MergeStep; the two coordinate only through the delta
// switch protocol.
type Partition struct {
	sch     *schema.Schema
	main    *columnmap.ColumnMap
	factory RecordFactory

	// cur receives Puts; old is the sealed delta, already merged (or being
	// merged) into main. Both are pre-allocated at startup (§4.6 footnote
	// 7); a switch is two pointer swaps plus a reset. These fields are
	// written by the RTA thread only while the ESP thread is parked by the
	// flag protocol, whose atomic operations order the writes.
	cur, old *delta.Delta

	// Flag protocol state (Appendix A). rtaReady signals the RTA thread's
	// intent to switch; espWaiting acknowledges that the ESP thread is
	// parked. Deviation from the paper's Algorithms 6/7: the ESP thread
	// clears espWaiting itself after leaving the spin loop and the RTA
	// thread waits for that, closing a window in which back-to-back
	// switches could deadlock against a still-spinning ESP thread.
	rtaReady   atomic.Bool
	espWaiting atomic.Bool
	// espAttached is true while an ESP service loop is running. When no
	// ESP thread is attached (tests, shutdown), switches proceed
	// immediately — there is nobody to park.
	espAttached atomic.Bool
	// kick, when non-nil, is poked by the RTA thread after raising
	// rtaReady so a channel-blocked ESP worker wakes up to acknowledge.
	kick func()

	// pending mirrors cur.Len() for cross-thread readers (admission
	// control, watermark gauges). The delta itself is ESP-thread confined;
	// this atomic is the only part of its size other threads may observe.
	pending atomic.Int64

	version uint64        // conditional-write version counter
	scratch schema.Record // ESP-thread-confined record buffer
	gdirty  []uint64      // dirty-group bitmask scratch for batched apply (ESP-thread confined)

	// dirty tracks entities Put since the last incremental checkpoint
	// (ESP-thread confined). nil when dirty tracking is disabled.
	dirty map[uint64]struct{}

	// tier is the cold-tier policy (see EnableTiering). Read by the RTA
	// thread at the end of every merge step; immutable once serving.
	tier TierConfig

	// obs holds the partition's observability hooks. All metric pointers
	// are nil-safe, so an uninstrumented partition pays one predictable
	// branch per hook.
	obs partitionObs
}

// partitionObs bundles the metrics and trace hooks a StorageNode wires into
// each of its partitions (see StorageNode.instrumentPartitions).
type partitionObs struct {
	idx        int64          // partition index within the node
	espPark    *obs.Histogram // time the ESP thread spends parked per switch
	switchWait *obs.Histogram // time the RTA thread waits for the ESP park ack
	spinSlow   *obs.Counter   // spinWait calls that fell through to sleeping
	freshness  *obs.Histogram // age of the oldest unmerged record at merge time
	deltaLen   *obs.Gauge     // records in the last sealed delta
	tracer     obs.Tracer     // may be nil
}

// NewPartition creates a partition. factory may be nil, in which case bare
// records are created for unseen entities. bucketSize <= 0 selects the
// ColumnMap default.
func NewPartition(sch *schema.Schema, bucketSize int, factory RecordFactory) *Partition {
	if factory == nil {
		factory = sch.NewRecord
	}
	return &Partition{
		sch:     sch,
		main:    columnmap.New(sch.Slots, bucketSize),
		factory: factory,
		cur:     delta.New(1024),
		old:     delta.New(1024),
		scratch: make(schema.Record, sch.Slots),
		gdirty:  make([]uint64, sch.GroupMaskWords()),
	}
}

// Schema returns the partition's schema.
func (p *Partition) Schema() *schema.Schema { return p.sch }

// Main exposes the ColumnMap for scan steps and tests.
func (p *Partition) Main() *columnmap.ColumnMap { return p.main }

// DeltaLen reports the number of entities pending in the active delta. Only
// the ESP thread may call it.
func (p *Partition) DeltaLen() int { return p.cur.Len() }

// PendingDelta reports the active delta's size as of the last Put. Unlike
// DeltaLen it is safe from any goroutine; it may lag the true size by the
// writes in flight on the ESP thread.
func (p *Partition) PendingDelta() int64 { return p.pending.Load() }

// --- ESP-thread operations -------------------------------------------------

// Get copies the freshest version of the entity's record into dst and
// returns its modification version (Algorithm 3: new delta, then old delta,
// then main).
func (p *Partition) Get(entityID uint64, dst schema.Record) (uint64, bool) {
	if p.cur.Get(entityID, dst) {
		return dst[p.sch.VersionSlot], true
	}
	if p.old.Get(entityID, dst) {
		return dst[p.sch.VersionSlot], true
	}
	if ok, err := p.main.GatherEntity(entityID, dst); ok && err == nil {
		return dst[p.sch.VersionSlot], true
	}
	return 0, false
}

// currentVersion returns the freshest stored version for the entity.
func (p *Partition) currentVersion(entityID uint64) (uint64, bool) {
	if v, ok := p.cur.Slot(entityID, p.sch.VersionSlot); ok {
		return v, true
	}
	if v, ok := p.old.Slot(entityID, p.sch.VersionSlot); ok {
		return v, true
	}
	if rid, ok := p.main.Lookup(entityID); ok {
		return p.main.Value(rid, p.sch.VersionSlot), true
	}
	return 0, false
}

// Put stores rec as the entity's newest version (Algorithm 4) and stamps a
// fresh modification version. Version counters restart after recovery;
// conditional writes compare versions for equality, so the only hazard is a
// full-cycle ABA, which a single-row workload cannot produce.
func (p *Partition) Put(rec schema.Record) {
	p.version++
	rec[p.sch.VersionSlot] = p.version
	p.cur.Put(rec.EntityID(), rec)
	p.pending.Store(int64(p.cur.Len()))
	if p.dirty != nil {
		p.dirty[rec.EntityID()] = struct{}{}
	}
}

// EnableDirtyTracking turns on the dirty-entity set used by incremental
// checkpoints. Must be called before any Put.
func (p *Partition) EnableDirtyTracking() {
	p.dirty = make(map[uint64]struct{})
}

// SnapshotRecords emits a consistent copy of every Entity Record (or only
// the dirty ones) and clears the dirty set. It must run on the partition's
// ESP thread; it may run concurrently with RTA merge steps. The main rows a
// merge rewrites are exactly the sealed delta's entities, and that
// membership cannot change while this runs (a delta switch needs the ESP
// thread this call occupies) — so delta membership is checked BEFORE
// touching a main row, skipped rows get their fresher delta copy emitted
// instead, and rows actually read from main are never concurrently written.
func (p *Partition) SnapshotRecords(onlyDirty bool, emit func(rec schema.Record) error) error {
	buf := make(schema.Record, p.sch.Slots)
	if onlyDirty {
		if p.dirty == nil {
			return errors.New("core: dirty tracking not enabled")
		}
		for id := range p.dirty {
			if _, ok := p.Get(id, buf); ok {
				if err := emit(buf); err != nil {
					return err
				}
			}
		}
		clear(p.dirty)
		return nil
	}
	for _, e := range p.main.IndexSnapshot() {
		if p.cur.Contains(e.Entity) || p.old.Contains(e.Entity) {
			continue // the delta copy below is fresher (and tear-free)
		}
		if err := p.main.Gather(e.RID, buf); err != nil {
			return err
		}
		if err := emit(buf); err != nil {
			return err
		}
	}
	var emitErr error
	p.cur.Iterate(func(id uint64, rec []uint64) {
		if emitErr != nil {
			return
		}
		copy(buf, rec)
		emitErr = emit(buf)
	})
	if emitErr != nil {
		return emitErr
	}
	p.old.Iterate(func(id uint64, rec []uint64) {
		if emitErr != nil || p.cur.Contains(id) {
			return
		}
		copy(buf, rec)
		emitErr = emit(buf)
	})
	if emitErr != nil {
		return emitErr
	}
	if p.dirty != nil {
		clear(p.dirty)
	}
	return nil
}

// ConditionalPut is Put guarded by the version returned from a prior Get.
func (p *Partition) ConditionalPut(rec schema.Record, expected uint64) error {
	if v, ok := p.currentVersion(rec.EntityID()); ok && v != expected {
		return fmt.Errorf("%w: entity %d at version %d, expected %d",
			ErrVersionConflict, rec.EntityID(), v, expected)
	}
	p.Put(rec)
	return nil
}

// putOwned is the ESP hot path's Put: rec (the scratch buffer) is stamped
// and handed to the delta by reference, and the delta's displaced slice
// comes back as the next scratch. One pointer swap instead of a full record
// copy. Only the owning ESP thread may call it, and rec must be p.scratch.
func (p *Partition) putOwned(rec schema.Record) {
	p.version++
	rec[p.sch.VersionSlot] = p.version
	entity := rec.EntityID()
	p.scratch = p.cur.PutOwned(entity, rec)
	p.pending.Store(int64(p.cur.Len()))
	if p.dirty != nil {
		p.dirty[entity] = struct{}{}
	}
}

// ApplyEvent is the partition-local body of UPDATE_MATRIX (Algorithm 1)
// for one event: ApplyEventBatch on a run of one, without rule callbacks.
// It returns the updated record; the returned slice is the partition's
// former scratch buffer (now owned by the delta), valid until the next ESP
// operation.
func (p *Partition) ApplyEvent(ev *event.Event) schema.Record {
	return p.ApplyEventBatch(unsafe.Slice(ev, 1), nil, nil)
}

// ApplyEventBatch applies a caller-coalesced run — consecutive events that
// all belong to the same caller — paying the Get (hash probes + record
// copy) and the delta Put once for the whole run instead of once per event.
//
// Updates run split-phase: each event's ingest touches only the hidden
// primitives, and visible aggregates are materialized lazily. ruleGroups,
// when non-nil, names the groups the active Business Rules read; before
// each intermediate onApply only the dirty groups in that set are
// materialized, since rule evaluation cannot observe any other visible
// slot. Everything still dirty is materialized once at the end of the run,
// before the record is stored — so the stored record, and the record seen
// by onApply for the final event within ruleGroups, are byte-identical to
// eager per-event schema.Apply (modulo the version slot, which advances
// once per event but is stamped only at the end). With ruleGroups == nil
// and a non-nil onApply, every dirty group materializes per event,
// preserving fully eager semantics for callers that inspect whole
// intermediate records. Returns the final record under the same lifetime
// contract as ApplyEvent.
func (p *Partition) ApplyEventBatch(run []event.Event, ruleGroups *schema.GroupSet, onApply func(ev *event.Event, rec schema.Record)) schema.Record {
	rec := p.scratch
	caller := run[0].Caller
	if _, ok := p.Get(caller, rec); !ok {
		fresh := p.factory(caller)
		copy(rec, fresh)
	}
	for i := range run {
		p.sch.ApplyIngest(rec, &run[i], p.gdirty)
		if onApply != nil {
			p.sch.MaterializeDirty(rec, p.gdirty, ruleGroups)
			onApply(&run[i], rec)
		}
	}
	// Publish whatever stayed lazy during the run before the record becomes
	// visible to Gets and scans.
	p.sch.MaterializeDirty(rec, p.gdirty, nil)
	// Advance the version counter as if each event had Put individually, so
	// conditional-write version arithmetic is unchanged by batching.
	p.version += uint64(len(run) - 1)
	p.putOwned(rec)
	return rec
}

// CheckSwitch parks the ESP thread while the RTA thread performs a delta
// switch (Algorithm 7). The ESP service loop must call it between requests.
func (p *Partition) CheckSwitch() {
	if !p.rtaReady.Load() {
		return
	}
	t0 := time.Now()
	p.espWaiting.Store(true)
	if spinWait(func() bool { return !p.rtaReady.Load() }) {
		p.obs.spinSlow.Inc()
	}
	p.espWaiting.Store(false)
	p.obs.espPark.ObserveSince(t0)
}

// AttachESP marks an ESP service loop as running; kick (optional) is
// invoked by the RTA thread to wake a blocked loop for flag checks.
func (p *Partition) AttachESP(kick func()) {
	p.kick = kick
	p.espAttached.Store(true)
}

// DetachESP marks the ESP service loop as stopped.
func (p *Partition) DetachESP() {
	p.espAttached.Store(false)
}

// --- RTA-thread operations --------------------------------------------------

// SwitchDeltas seals the active delta and installs the empty spare
// (Algorithm 6). It blocks the ESP thread only for the duration of two
// pointer swaps and a reset of the spare — the paper's "blazingly fast"
// new-delta allocation. Returns the sealed delta for merging.
func (p *Partition) SwitchDeltas() *delta.Delta {
	t0 := time.Now()
	p.rtaReady.Store(true)
	if p.espAttached.Load() {
		if p.kick != nil {
			p.kick()
		}
		if spinWait(func() bool { return p.espWaiting.Load() || !p.espAttached.Load() }) {
			p.obs.spinSlow.Inc()
		}
	}
	p.obs.switchWait.ObserveSince(t0)
	p.old.Reset() // retire the previously merged delta; it becomes the spare
	p.cur, p.old = p.old, p.cur
	p.pending.Store(0)
	p.rtaReady.Store(false)
	// Wait for the ESP thread to leave the spin loop before the next
	// switch can possibly begin.
	if spinWait(func() bool { return !p.espWaiting.Load() }) {
		p.obs.spinSlow.Inc()
	}
	if p.obs.tracer != nil {
		p.obs.tracer.Record(obs.Span{
			Kind:  obs.SpanDeltaSwitch,
			Start: t0,
			Dur:   time.Since(t0),
			A:     p.obs.idx,
			B:     int64(p.old.Len()),
		})
	}
	return p.old
}

// MergeStep performs one merge step (Figure 6): switch deltas, then apply
// every sealed record to the main in place. It returns the number of merged
// records. The ESP thread keeps running during the merge itself; Gets for
// affected entities are served from the sealed delta (Algorithm 3), which
// stays identical to what the main converges to.
func (p *Partition) MergeStep() int {
	sealed := p.SwitchDeltas()
	t0 := time.Now()
	// Freshness (t_fresh, §2.1): by the end of this merge step the oldest
	// record that was still invisible to scans has aged this much.
	if first := sealed.FirstPutNanos(); first > 0 {
		p.obs.freshness.ObserveDuration(time.Duration(t0.UnixNano() - first))
	}
	p.obs.deltaLen.Set(int64(sealed.Len()))
	n := 0
	sealed.Iterate(func(id uint64, rec []uint64) {
		if err := p.main.Upsert(rec); err != nil {
			// Upsert only fails on arity mismatch, which would be a
			// programming error caught by tests; surface loudly.
			panic(fmt.Sprintf("core: merge upsert entity %d: %v", id, err))
		}
		n++
	})
	// Tier aging (this thread is the main's single writer): every merge
	// step ticks the epoch clock, then demotes buckets whose last write —
	// restamped by the Upsert loop above — is ColdAfterEpochs ticks old.
	p.main.AdvanceEpoch()
	if p.tier.Enabled {
		crashpoint.Hit(crashpoint.CoreBucketFreeze)
		p.main.FreezeCold(uint64(p.tier.ColdAfterEpochs), p.tier.MaxFreezePerStep)
	}
	if p.obs.tracer != nil {
		p.obs.tracer.Record(obs.Span{
			Kind:  obs.SpanMergeStep,
			Start: t0,
			Dur:   time.Since(t0),
			A:     p.obs.idx,
			B:     int64(n),
		})
	}
	return n
}

// ScanSnapshot returns the main's buckets for a scan step. The snapshot is
// consistent: main is only mutated by this partition's own merge steps,
// which never overlap scan steps.
func (p *Partition) ScanSnapshot() []columnmap.Bucket {
	return p.main.Snapshot()
}
