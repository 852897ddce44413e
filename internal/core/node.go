package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/dimension"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/schema"
)

// ErrStopped is returned for operations against a stopped node.
var ErrStopped = errors.New("core: storage node stopped")

// Config configures a StorageNode. The defaults reproduce the paper's
// single-server setup: n = 5 RTA threads/partitions, s = 1 ESP thread,
// query batches capped at 8 (§5.2, §5.3).
type Config struct {
	// Schema is the Analytics Matrix schema (required).
	Schema *schema.Schema
	// Dims holds the node's replicated dimension tables (may be nil).
	Dims *dimension.Store
	// Partitions is n: the number of data partitions == RTA scan threads.
	Partitions int
	// ESPThreads is s: the number of ESP service loops.
	ESPThreads int
	// BucketSize is the ColumnMap bucket size (records per bucket).
	BucketSize int
	// Factory creates records for unseen entities (may be nil).
	Factory RecordFactory
	// MaxBatch caps the shared-scan query batch size.
	MaxBatch int
	// Rules is the replicated Business Rule set evaluated per event by
	// Algorithm 2 (the Fabret-style index pays off only past ~1000 rules,
	// §4.4; the workload runs 300).
	Rules []rules.Rule
	// OnFiring receives rule firings (the action sink); may be nil. It is
	// called from ESP goroutines and must be cheap and thread-safe.
	OnFiring func(rules.Firing)
	// IdleMergePause is how long the scan coordinator waits for queries
	// before running a merge-only round, bounding data freshness.
	IdleMergePause time.Duration
	// ESPQueueLen is the per-worker event queue capacity.
	ESPQueueLen int
	// Overload configures admission control, delta watermarks and scan
	// shedding. The zero value disables all of it (legacy blocking
	// behavior); see OverloadConfig.
	Overload OverloadConfig
	// Tier configures the compressed cold tier of the ColumnMap mains. The
	// zero value keeps every bucket hot (flat behavior); see TierConfig.
	Tier TierConfig
	// Archive, when set, write-ahead-logs every ingested event and enables
	// incremental checkpoints and crash recovery (see durability.go).
	Archive *archive.Archive
	// Metrics is the registry the node registers its instruments on. nil
	// creates a private registry (reachable via Metrics()) so NodeStats —
	// a view over the registry — always works.
	Metrics *obs.Registry
	// MetricsLabel, when non-empty, adds a node="<label>" constant label to
	// every metric so several nodes can share one registry.
	MetricsLabel string
	// Tracer receives scan-round / merge-step / delta-switch spans; may be
	// nil.
	Tracer obs.Tracer
}

func (c *Config) setDefaults() error {
	if c.Schema == nil {
		return errors.New("core: Config.Schema is required")
	}
	if c.ESPThreads <= 0 {
		c.ESPThreads = 1
	}
	if c.Partitions <= 0 {
		// The paper's allocation rule (§4.8): n = cores - s - 2 (two cores
		// for communication), but at least one partition.
		c.Partitions = runtime.NumCPU() - c.ESPThreads - 2
		if c.Partitions < 1 {
			c.Partitions = 1
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.IdleMergePause <= 0 {
		c.IdleMergePause = 500 * time.Microsecond
	}
	if c.ESPQueueLen <= 0 {
		c.ESPQueueLen = 4096
	}
	c.Overload.setDefaults(4 * c.MaxBatch)
	c.Tier.setDefaults()
	return nil
}

// QueryResponse delivers a node-level merged partial (or an error) for one
// submitted query.
type QueryResponse struct {
	Partial *query.Partial
	Err     error
}

type submission struct {
	q    *query.Query
	resp chan QueryResponse
}

type scanBatch struct {
	queries []*submission
	// plan is the fused batch plan compiled once per round by the
	// coordinator and shared read-only by every scan thread.
	plan  *query.BatchPlan
	done  chan []*query.Partial // one slice per scan thread, parallel to queries
	errCh chan error
}

// NodeStats is a snapshot of a node's counters.
type NodeStats struct {
	EventsProcessed uint64
	RuleFirings     uint64
	ScanRounds      uint64
	MergedRecords   uint64
	QueriesServed   uint64
	// CoalescedPuts counts record copies the batched ingest path saved by
	// grouping consecutive same-caller events into one Get/Put pair.
	CoalescedPuts uint64
	Records       int
}

// StorageNode is one AIM storage server: it hosts Partitions data
// partitions, ESPThreads ESP service loops, one RTA scan thread per
// partition, and a coordinator that batches incoming queries and starts all
// scan threads simultaneously (intra-node consistency, §4.8).
type StorageNode struct {
	cfg     Config
	parts   []*Partition
	workers []*espWorker

	submitCh chan *submission
	scanChs  []chan *scanBatch
	stopCh   chan struct{}
	wg       sync.WaitGroup
	stopped  atomic.Bool

	// ingestMu makes archive-append + worker-enqueue one step, so the
	// order events are logged in is the order they are applied in. A
	// producer holds it across the pair; a shared lock would let two
	// producers log in one order and enqueue in the other, and recovery
	// would then rebuild a matrix the live node never held. The
	// checkpointer takes it to pin a watermark W with every event below W
	// already queued ahead of the capture barrier and no event at/above W
	// queued behind it.
	ingestMu sync.Mutex
	// ckptMu serializes checkpoints (one fuzzy snapshot at a time).
	ckptMu sync.Mutex
	// forceFull is set when an incremental checkpoint fails after the
	// capture barrier cleared the dirty sets; the next checkpoint must be
	// full or it would miss those entities.
	forceFull atomic.Bool

	reg *obs.Registry
	met nodeMetrics
}

// NewNode builds and starts a storage node.
func NewNode(cfg Config) (*StorageNode, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	n := &StorageNode{
		cfg:      cfg,
		submitCh: make(chan *submission, 4*cfg.MaxBatch),
		stopCh:   make(chan struct{}),
	}
	n.reg = cfg.Metrics
	if n.reg == nil {
		n.reg = obs.NewRegistry()
	}
	n.met = newNodeMetrics(n.reg, cfg.MetricsLabel)
	for i := 0; i < cfg.Partitions; i++ {
		p := NewPartition(cfg.Schema, cfg.BucketSize, cfg.Factory)
		if cfg.Archive != nil {
			p.EnableDirtyTracking()
		}
		if cfg.Tier.Enabled {
			p.EnableTiering(cfg.Tier)
		}
		n.parts = append(n.parts, p)
	}
	n.instrumentPartitions(n.reg, cfg.MetricsLabel, cfg.Tracer)
	for i := 0; i < cfg.ESPThreads; i++ {
		w := newESPWorker(n, cfg.ESPQueueLen)
		if len(cfg.Rules) > 0 {
			eng, err := rules.NewEngine(cfg.Schema, cfg.Rules, false)
			if err != nil {
				return nil, err
			}
			w.engine = eng
			// Groups the rule set reads, computed once: the batched apply
			// path materializes only these on intermediate records.
			w.ruleGroups = cfg.Schema.GroupSetForAttrs(eng.ReadAttrs())
		}
		n.workers = append(n.workers, w)
	}
	// Partition i is served by ESP worker i mod s (§4.8, Figure 8).
	for i, p := range n.parts {
		n.workers[i%len(n.workers)].attach(p)
	}
	n.instrumentWorkers(n.reg, cfg.MetricsLabel)
	for _, w := range n.workers {
		n.wg.Add(1)
		go func(w *espWorker) {
			defer n.wg.Done()
			w.run()
		}(w)
	}
	// One RTA scan thread per partition.
	n.scanChs = make([]chan *scanBatch, cfg.Partitions)
	for i := range n.scanChs {
		n.scanChs[i] = make(chan *scanBatch)
		n.wg.Add(1)
		go func(idx int) {
			defer n.wg.Done()
			n.scanLoop(idx)
		}(i)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.coordinatorLoop()
	}()
	return n, nil
}

// partitionFor maps an entity id to its partition (the node-local hash h_i
// of §4.8).
func (n *StorageNode) partitionFor(entityID uint64) *Partition {
	h := entityID * 0x9E3779B97F4A7C15
	return n.parts[(h>>32)%uint64(len(n.parts))]
}

// workerIndexFor maps an entity id to the index of the ESP worker serving
// its partition.
func (n *StorageNode) workerIndexFor(entityID uint64) int {
	h := entityID * 0x9E3779B97F4A7C15
	pi := int((h >> 32) % uint64(len(n.parts)))
	return pi % len(n.workers)
}

// workerForEntity returns the ESP worker serving the entity's partition.
func (n *StorageNode) workerForEntity(entityID uint64) *espWorker {
	return n.workers[n.workerIndexFor(entityID)]
}

// --- ESP-facing API ---------------------------------------------------------
//
// Every ingest entry point funnels into ingest: a lone event is a batch of
// one, exactly as it is on the wire, so one admission → WAL group append →
// kindBatch → applyRun path serves all of them.

// ProcessEventAsync enqueues an event for processing. Without overload
// protection it blocks only when the responsible ESP queue is full
// (backpressure); with Config.Overload.Enabled it instead rejects with a
// typed *OverloadedError once the queue passes the soft limit or the
// partition's delta passes the hard watermark.
func (n *StorageNode) ProcessEventAsync(ev event.Event) error {
	if n.stopped.Load() {
		return ErrStopped
	}
	if err := n.admitEvent(ev.Caller); err != nil {
		return err
	}
	return n.ingest([]event.Event{ev}, nil)
}

// ProcessEvent processes an event synchronously and returns the number of
// rule firings it caused. It skips admission, which gates fire-and-forget
// ingest only: a sync caller already waits on the ESP thread.
func (n *StorageNode) ProcessEvent(ev event.Event) (int, error) {
	if n.stopped.Load() {
		return 0, ErrStopped
	}
	resp := make(chan espResponse, 1)
	if err := n.ingest([]event.Event{ev}, resp); err != nil {
		return 0, err
	}
	r := <-resp
	return r.firings, r.err
}

// BatchProcessor is the optional batched-ingest extension of Storage:
// handles that implement it accept many fire-and-forget events in one call
// (one wire frame, one WAL group append, one channel send per worker).
// StorageNode and netproto.Client both implement it.
type BatchProcessor interface {
	ProcessEventBatch(evs []event.Event) error
}

// PartialBatchError reports a batch that a forwarding layer accepted only
// partway: the handle took ownership of the first Applied events (the
// cluster delivered or spilled them) and none of the rest. Callers
// re-submit only the suffix. A StorageNode never returns one: its ingest is
// all-or-nothing, and a failed WAL append fails the whole batch.
type PartialBatchError struct {
	Applied int
	Err     error
}

func (e *PartialBatchError) Error() string {
	return fmt.Sprintf("core: batch ingest stopped after %d events: %v", e.Applied, e.Err)
}

func (e *PartialBatchError) Unwrap() error { return e.Err }

// ProcessBatch delivers evs through one ProcessEventBatch call when the
// handle supports it, else per event. It returns how many leading events
// were handed off along with the first error: a batch-capable handle fails
// all-or-nothing (0 on error) unless the error is a *PartialBatchError
// carrying the accepted prefix length; the per-event fallback stops at the
// failing event. Callers relinquish ownership of evs[:delivered] either way
// and own the retry of the suffix.
func ProcessBatch(st Storage, evs []event.Event) (int, error) {
	if bp, ok := st.(BatchProcessor); ok {
		if err := bp.ProcessEventBatch(evs); err != nil {
			var pe *PartialBatchError
			if errors.As(err, &pe) {
				return pe.Applied, err
			}
			return 0, err
		}
		return len(evs), nil
	}
	for i := range evs {
		if err := st.ProcessEventAsync(evs[i]); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

// ProcessEventBatch ingests a batch of fire-and-forget events, taking
// ownership of evs. Semantics match len(evs) ProcessEventAsync calls —
// same matrix state, same rule firings, same archive contents — but the
// batch pays one archive group append and one channel send per worker
// instead of per event.
func (n *StorageNode) ProcessEventBatch(evs []event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if n.stopped.Load() {
		return ErrStopped
	}
	// Admission runs before the WAL append so a rejected batch is
	// all-or-nothing: nothing logged, nothing enqueued, caller owns the
	// whole batch again.
	if err := n.admitBatch(evs); err != nil {
		return err
	}
	n.met.ingestBatch.Observe(uint64(len(evs)))
	return n.ingest(evs, nil)
}

// ingest logs evs (when archived) and hands them to the ESP workers, taking
// ownership of evs. With an archive, append + enqueue happen under ingestMu,
// so log order is apply order and the pair is atomic with respect to the
// fuzzy-checkpoint watermark pin. A failed append applies nothing and
// returns archive.ErrFailed, as does every later ingest: the archive is
// fail-stop. resp, when non-nil, receives the worker's reply; only
// single-event calls pass one (see enqueueBatch).
func (n *StorageNode) ingest(evs []event.Event, resp chan espResponse) error {
	if n.cfg.Archive == nil {
		n.enqueueBatch(evs, resp)
		return nil
	}
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if _, _, err := n.cfg.Archive.AppendBatch(evs); err != nil {
		return err
	}
	n.enqueueBatch(evs, resp)
	return nil
}

// enqueueBatch hands evs to the ESP workers, bucketed per worker with
// arrival order preserved inside each bucket. Takes ownership of evs. resp
// rides on the request only when the whole batch lands on one worker, which
// a single event always does.
func (n *StorageNode) enqueueBatch(evs []event.Event, resp chan espResponse) {
	if len(evs) == 1 || len(n.workers) == 1 {
		n.workerForEntity(evs[0].Caller).ch <- espRequest{kind: kindBatch, evs: evs, resp: resp}
		return
	}
	buckets := make([][]event.Event, len(n.workers))
	for i := range evs {
		wi := n.workerIndexFor(evs[i].Caller)
		buckets[wi] = append(buckets[wi], evs[i])
	}
	for wi, b := range buckets {
		if len(b) > 0 {
			n.workers[wi].ch <- espRequest{kind: kindBatch, evs: b}
		}
	}
}

// FlushEvents blocks until every event enqueued before the call has been
// processed.
func (n *StorageNode) FlushEvents() error {
	if n.stopped.Load() {
		return ErrStopped
	}
	resps := make([]chan espResponse, len(n.workers))
	for i, w := range n.workers {
		resps[i] = make(chan espResponse, 1)
		w.ch <- espRequest{kind: kindSync, resp: resps[i]}
	}
	for _, c := range resps {
		<-c
	}
	return nil
}

// Get returns a copy of the entity's freshest record and its version.
func (n *StorageNode) Get(entityID uint64) (schema.Record, uint64, bool, error) {
	if n.stopped.Load() {
		return nil, 0, false, ErrStopped
	}
	resp := make(chan espResponse, 1)
	n.workerForEntity(entityID).ch <- espRequest{kind: kindGet, entity: entityID, resp: resp}
	r := <-resp
	return r.rec, r.version, r.found, nil
}

// Put stores rec unconditionally.
func (n *StorageNode) Put(rec schema.Record) error {
	if n.stopped.Load() {
		return ErrStopped
	}
	resp := make(chan espResponse, 1)
	n.workerForEntity(rec.EntityID()).ch <- espRequest{kind: kindPut, rec: rec.Clone(), resp: resp}
	<-resp
	return nil
}

// ConditionalPut stores rec if the entity is still at the expected version.
func (n *StorageNode) ConditionalPut(rec schema.Record, expected uint64) error {
	if n.stopped.Load() {
		return ErrStopped
	}
	resp := make(chan espResponse, 1)
	n.workerForEntity(rec.EntityID()).ch <- espRequest{kind: kindCondPut, rec: rec.Clone(), version: expected, resp: resp}
	r := <-resp
	return r.err
}

// --- RTA-facing API ---------------------------------------------------------

// SubmitQueryAsync queues q for the next shared-scan batch and returns a
// channel that will deliver the node-level merged partial (§4.2's
// asynchronous RTA protocol). With Config.Overload.Enabled the pending
// pool is bounded: past MaxPendingQueries the submission is rejected with
// a typed *OverloadedError instead of queued, so analytics sheds load
// before it can pile onto a saturated node.
func (n *StorageNode) SubmitQueryAsync(q *query.Query) (<-chan QueryResponse, error) {
	if n.stopped.Load() {
		return nil, ErrStopped
	}
	if err := q.Validate(n.cfg.Schema); err != nil {
		return nil, err
	}
	if ol := &n.cfg.Overload; ol.Enabled && len(n.submitCh) >= ol.MaxPendingQueries {
		n.met.rejectScan.Inc()
		return nil, &OverloadedError{RetryAfter: ol.RetryAfter, Reason: "scan-admission"}
	}
	s := &submission{q: q, resp: make(chan QueryResponse, 1)}
	select {
	case n.submitCh <- s:
		return s.resp, nil
	case <-n.stopCh:
		return nil, ErrStopped
	}
}

// SubmitQuery runs q and waits for the node-level partial.
func (n *StorageNode) SubmitQuery(q *query.Query) (*query.Partial, error) {
	ch, err := n.SubmitQueryAsync(q)
	if err != nil {
		return nil, err
	}
	r := <-ch
	return r.Partial, r.Err
}

// coordinatorLoop batches submissions and drives scan rounds. Every round
// starts all scan threads on the same batch simultaneously and ends with
// each partition's merge step, so RTA queries always see a consistent
// snapshot and data freshness is bounded by the round duration plus
// IdleMergePause.
func (n *StorageNode) coordinatorLoop() {
	timer := time.NewTimer(n.cfg.IdleMergePause)
	defer timer.Stop()
	for {
		batch, ok := n.collectBatch(timer)
		if !ok {
			return // stopping
		}
		n.runRound(batch)
	}
}

// collectBatch waits for at least one query or the idle pause, then drains
// up to the batch limit without blocking. ok=false means shutdown; an empty
// batch with ok=true is a merge-only round.
//
// Past the delta soft watermark the coordinator sheds scan concurrency:
// the idle pause shrinks so merge-only rounds come sooner, and the batch
// cap halves so each round spends less time scanning and more of the
// round budget merging — delta growth slows before the hard watermark
// starts rejecting ingest.
func (n *StorageNode) collectBatch(timer *time.Timer) ([]*submission, bool) {
	pause, limit := n.cfg.IdleMergePause, n.cfg.MaxBatch
	if n.watermarkState() >= watermarkSoft {
		pause /= 8
		if pause <= 0 {
			pause = time.Microsecond
		}
		limit = (limit + 1) / 2
		n.met.shedRounds.Inc()
	}
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(pause)
	var batch []*submission
	select {
	case s := <-n.submitCh:
		batch = append(batch, s)
	case <-timer.C:
		return batch, true // empty merge-only round
	case <-n.stopCh:
		return nil, false
	}
	for len(batch) < limit {
		select {
		case s := <-n.submitCh:
			batch = append(batch, s)
		default:
			return batch, true
		}
	}
	return batch, true
}

// runRound compiles the batch into one fused plan, distributes it to every
// scan thread, gathers their per-partition partials, merges them and answers
// the submitters.
func (n *StorageNode) runRound(batch []*submission) {
	batch = n.evictExpired(batch)
	t0 := time.Now()
	queries := make([]*query.Query, len(batch))
	for i, s := range batch {
		queries[i] = s.q
	}
	plan, err := query.CompileBatch(n.cfg.Schema, queries)
	if err != nil {
		// Unreachable for validated submissions; fail the batch rather than
		// stall the merge cadence for long.
		n.failBatch(batch, err)
		return
	}
	sb := &scanBatch{
		queries: batch,
		plan:    plan,
		done:    make(chan []*query.Partial, len(n.scanChs)),
		errCh:   make(chan error, len(n.scanChs)),
	}
	for _, ch := range n.scanChs {
		select {
		case ch <- sb:
		case <-n.stopCh:
			n.failBatch(batch, ErrStopped)
			return
		}
	}
	merged := make([]*query.Partial, len(batch))
	for i, s := range batch {
		merged[i] = query.NewPartial(s.q)
	}
	var firstErr error
	for range n.scanChs {
		select {
		case partials := <-sb.done:
			for i, p := range partials {
				merged[i].Merge(p, batch[i].q)
			}
		case err := <-sb.errCh:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	n.met.scanRounds.Inc()
	if len(batch) > 0 {
		d := time.Since(t0)
		n.met.scan.ObserveRound(plan, d)
		if n.cfg.Tracer != nil {
			n.cfg.Tracer.Record(obs.Span{
				Kind:  obs.SpanScanRound,
				Start: t0,
				Dur:   d,
				A:     int64(len(batch)),
				B:     int64(len(batch) - plan.NumDuplicates()),
			})
		}
	}
	for i, s := range batch {
		if firstErr != nil {
			s.resp <- QueryResponse{Err: firstErr}
		} else {
			s.resp <- QueryResponse{Partial: merged[i]}
			n.met.queriesServed.Inc()
		}
	}
}

func (n *StorageNode) failBatch(batch []*submission, err error) {
	for _, s := range batch {
		s.resp <- QueryResponse{Err: err}
	}
}

// evictExpired answers every submission whose Deadline already passed with
// a typed ErrDeadline and returns the still-live remainder. Evicted
// queries never enter the fused plan, so a round's scan budget is spent
// only on queries whose submitters are still waiting.
func (n *StorageNode) evictExpired(batch []*submission) []*submission {
	deadlined := false
	for _, s := range batch {
		if s.q.Deadline > 0 {
			deadlined = true
			break
		}
	}
	if !deadlined {
		return batch
	}
	now := time.Now().UnixNano()
	live := batch[:0]
	for _, s := range batch {
		if s.q.Deadline > 0 && s.q.Deadline <= now {
			n.met.rejectDeadline.Inc()
			s.resp <- QueryResponse{Err: fmt.Errorf("%w: query %d", ErrDeadline, s.q.ID)}
			continue
		}
		live = append(live, s)
	}
	return live
}

// scanLoop is one RTA thread (Figure 6): scan step over the partition's
// main for the whole batch, then merge step.
//
// The thread pools its partials across rounds: the coordinator finishes
// merging a round's partials before it dispatches the next round, so the
// pool entries are free for reuse by the time the next batch arrives. With
// the executor's pooled mask slab this makes steady-state scan rounds
// allocation-free for non-grouped queries.
func (n *StorageNode) scanLoop(idx int) {
	p := n.parts[idx]
	ex := query.NewExecutor(n.cfg.Schema, n.cfg.Dims)
	pool := make([]*query.Partial, 0, n.cfg.MaxBatch)
	for {
		var sb *scanBatch
		select {
		case sb = <-n.scanChs[idx]:
		case <-n.stopCh:
			return
		}
		for len(pool) < len(sb.queries) {
			pool = append(pool, &query.Partial{})
		}
		partials := pool[:len(sb.queries)]
		for i, s := range sb.queries {
			partials[i].Reset(s.q)
		}
		var scanErr error
		if len(sb.queries) > 0 {
			// Shared scan (Algorithm 5): buckets outer, the fused batch
			// plan answering every query inside.
			for _, bucket := range p.ScanSnapshot() {
				if err := ex.ProcessBucketBatch(bucket, sb.plan, partials); err != nil {
					scanErr = fmt.Errorf("core: partition %d: %w", idx, err)
					break
				}
			}
			if scanErr == nil {
				sb.plan.FoldDuplicates(partials)
			}
		}
		merged := p.MergeStep()
		n.met.mergedRecords.Add(uint64(merged))
		if scanErr != nil {
			sb.errCh <- scanErr
			continue
		}
		sb.done <- partials
	}
}

// Stats returns a snapshot of the node's counters. It is a view over the
// node's metrics registry, which holds the only copy of these counts.
func (n *StorageNode) Stats() NodeStats {
	records := 0
	for _, p := range n.parts {
		records += p.Main().Len()
	}
	return NodeStats{
		EventsProcessed: n.met.events.Value(),
		RuleFirings:     n.met.firings.Value(),
		ScanRounds:      n.met.scanRounds.Value(),
		MergedRecords:   n.met.mergedRecords.Value(),
		QueriesServed:   n.met.queriesServed.Value(),
		CoalescedPuts:   n.met.coalescedPuts.Value(),
		Records:         records,
	}
}

// Metrics returns the registry the node's instruments live on (the one from
// Config.Metrics, or the node's private registry).
func (n *StorageNode) Metrics() *obs.Registry { return n.reg }

// NumPartitions returns n (the partition / RTA thread count).
func (n *StorageNode) NumPartitions() int { return len(n.parts) }

// Schema returns the node's schema.
func (n *StorageNode) Schema() *schema.Schema { return n.cfg.Schema }

// Stop shuts the node down: ESP workers drain their queues, in-flight scan
// rounds finish, and subsequent API calls fail with ErrStopped.
func (n *StorageNode) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	for _, w := range n.workers {
		close(w.stop)
	}
	for _, w := range n.workers {
		<-w.done
	}
	close(n.stopCh)
	n.wg.Wait()
	// Fail any submissions that raced with shutdown.
	for {
		select {
		case s := <-n.submitCh:
			s.resp <- QueryResponse{Err: ErrStopped}
		default:
			return
		}
	}
}
