package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/checkpoint"
	"repro/internal/event"
	"repro/internal/schema"
)

// Durability glue: the event archive acts as the write-ahead log of the
// Analytics Matrix, incremental checkpoints bound its replay tail, and
// Restore rebuilds a node from checkpoint + tail (§7: "a persistent event
// archive ... incremental checkpointing and zero-copy logging").
//
// Checkpoints are FUZZY: ingest keeps flowing while the snapshot is taken.
// Correctness hangs on two orderings:
//
//  1. Producers make archive-append + worker-enqueue atomic under
//     ingestMu (see StorageNode.ingest), so events are applied in log order.
//  2. The checkpointer takes ingestMu, reads the next LSN as the
//     watermark W, and enqueues one capture barrier per ESP worker before
//     unlocking. Worker queues are FIFO, so when a barrier runs, its worker
//     has applied every event with LSN < W and no event with LSN >= W.
//
// The barriers memcpy the partition records on the ESP thread (cheap);
// streaming to disk happens afterwards on the checkpointer's thread while
// events keep flowing. Direct Put/ConditionalPut calls are not WAL'd — only
// event ingest is — so records written that way are durable only once a
// later checkpoint captures them.

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	Full      bool
	Records   uint64
	Bytes     uint64
	Watermark uint64
	Duration  time.Duration
}

// Checkpoint snapshots the node's Entity Records into a new checkpoint
// file. full=true writes every record; full=false writes only records
// dirtied since the last checkpoint (requires the archive, which recovery
// needs for the replay tail anyway). The snapshot is fuzzy: events may be
// ingested concurrently, and the resulting file is consistent with an exact
// archive watermark.
func (n *StorageNode) Checkpoint(mgr *checkpoint.Manager, full bool) error {
	_, err := n.FuzzyCheckpoint(mgr, full)
	return err
}

// FuzzyCheckpoint is Checkpoint with stats. Checkpoints are serialized;
// concurrent callers queue behind each other.
func (n *StorageNode) FuzzyCheckpoint(mgr *checkpoint.Manager, full bool) (CheckpointStats, error) {
	var st CheckpointStats
	if n.stopped.Load() {
		return st, ErrStopped
	}
	if !full && n.cfg.Archive == nil {
		return st, errors.New("core: incremental checkpoints require Config.Archive")
	}
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	if n.forceFull.Load() {
		full = true
	}
	t0 := time.Now()
	slots := n.cfg.Schema.Slots

	// Pin the watermark and plant one capture barrier per worker while no
	// producer can append/enqueue.
	captures := make([][]uint64, len(n.workers))
	resps := make([]chan espResponse, len(n.workers))
	n.ingestMu.Lock()
	var watermark uint64
	if n.cfg.Archive != nil {
		watermark = n.cfg.Archive.NextLSN()
	}
	for i, w := range n.workers {
		i, w := i, w
		resps[i] = make(chan espResponse, 1)
		w.ch <- espRequest{
			kind: kindExec,
			fn: func() error {
				for _, p := range w.parts {
					err := p.SnapshotRecords(!full, func(rec schema.Record) error {
						captures[i] = append(captures[i], rec...)
						return nil
					})
					if err != nil {
						return err
					}
				}
				return nil
			},
			resp: resps[i],
		}
	}
	n.ingestMu.Unlock()

	fail := func(err error) (CheckpointStats, error) {
		// An incremental capture clears the dirty sets; if this checkpoint
		// does not land, those entities would be skipped forever, so the
		// next one must be full.
		if !full {
			n.forceFull.Store(true)
		}
		n.met.ckptFailures.Inc()
		return st, err
	}

	var barrierErr error
	for i := range resps {
		if r := <-resps[i]; r.err != nil && barrierErr == nil {
			barrierErr = fmt.Errorf("core: checkpoint capture (worker %d): %w", i, r.err)
		}
	}
	if barrierErr != nil {
		return fail(barrierErr)
	}

	// The WAL must be durable up to the watermark before a checkpoint
	// referencing it is published.
	if n.cfg.Archive != nil {
		if err := n.cfg.Archive.Sync(); err != nil {
			return fail(err)
		}
	}
	w, err := mgr.Create(slots, watermark, full)
	if err != nil {
		return fail(err)
	}
	for _, buf := range captures {
		for off := 0; off < len(buf); off += slots {
			if err := w.Add(buf[off : off+slots]); err != nil {
				w.Abort()
				return fail(err)
			}
		}
	}
	st = CheckpointStats{
		Full:      full,
		Records:   w.Count(),
		Bytes:     w.Bytes(),
		Watermark: watermark,
	}
	if err := w.Close(); err != nil {
		return fail(err)
	}
	n.forceFull.Store(false)
	st.Duration = time.Since(t0)
	n.met.ckptTotal.Inc()
	n.met.ckptRecords.Add(st.Records)
	n.met.ckptBytes.Add(st.Bytes)
	n.met.ckptDuration.ObserveSince(t0)
	return st, nil
}

// CheckpointerOptions configures the background checkpoint loop.
type CheckpointerOptions struct {
	// Interval between checkpoints (default 10s).
	Interval time.Duration
	// BaseEvery makes every Nth checkpoint a full base (default 8); the
	// first checkpoint of an empty directory is always a base.
	BaseEvery int
	// GC enables retention: after each base lands, checkpoint files below
	// it are deleted and archive segments below its watermark truncated.
	GC bool
	// OnError, when set, receives checkpoint/GC errors (the loop keeps
	// running); otherwise errors are only counted in the node's metrics.
	OnError func(error)
}

// Checkpointer runs periodic fuzzy checkpoints in the background.
type Checkpointer struct {
	n    *StorageNode
	mgr  *checkpoint.Manager
	opts CheckpointerOptions
	seq  uint64
	quit chan struct{}
	done chan struct{}
}

// StartCheckpointer launches the background checkpoint loop.
func (n *StorageNode) StartCheckpointer(mgr *checkpoint.Manager, opts CheckpointerOptions) *Checkpointer {
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Second
	}
	if opts.BaseEvery <= 0 {
		opts.BaseEvery = 8
	}
	c := &Checkpointer{
		n:    n,
		mgr:  mgr,
		opts: opts,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

func (c *Checkpointer) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := c.RunOnce(); err != nil && !errors.Is(err, ErrStopped) {
				if c.opts.OnError != nil {
					c.opts.OnError(err)
				}
			}
		case <-c.quit:
			return
		}
	}
}

// RunOnce takes one checkpoint now (also used by the shutdown path for the
// final checkpoint) and runs retention GC when a base lands.
func (c *Checkpointer) RunOnce() error {
	full := c.seq%uint64(c.opts.BaseEvery) == 0
	if !full {
		if has, err := c.mgr.HasBase(); err == nil && !has {
			full = true
		}
	}
	st, err := c.n.FuzzyCheckpoint(c.mgr, full)
	if err != nil {
		return err
	}
	c.seq++
	if st.Full && c.opts.GC {
		if _, baseWM, err := c.mgr.GC(); err != nil {
			return fmt.Errorf("core: checkpoint gc: %w", err)
		} else if c.n.cfg.Archive != nil && baseWM > 0 {
			if _, err := c.n.cfg.Archive.TruncateBelow(baseWM); err != nil {
				return fmt.Errorf("core: archive gc: %w", err)
			}
		}
	}
	return nil
}

// Stop halts the loop (without a final checkpoint; call RunOnce first for
// that).
func (c *Checkpointer) Stop() {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	<-c.done
}

// RecoveryReport describes one node recovery end to end.
type RecoveryReport struct {
	// Checkpoint is what the checkpoint load used and quarantined.
	Checkpoint *checkpoint.LoadReport
	// Archive is what archive recovery repaired at Open (copied from the
	// archive's own report; zero when Config.Archive is nil).
	Archive archive.RecoveryReport
	// Records is how many Entity Records the checkpoint chain restored.
	Records int
	// Watermark is the LSN the archive tail replay started from.
	Watermark uint64
	// TailEvents is how many archived events were replayed beyond the
	// watermark.
	TailEvents int
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// Restore builds a storage node from the newest checkpoint chain in mgr and
// replays the archive tail beyond the checkpoint watermark through the
// normal ESP path, with Strict validation everywhere.
func Restore(cfg Config, mgr *checkpoint.Manager) (*StorageNode, error) {
	n, _, err := RestoreWithReport(cfg, mgr, checkpoint.Strict)
	return n, err
}

// RestoreWithReport is Restore with a selectable corruption policy for the
// checkpoint chain (the archive's policy was chosen when cfg.Archive was
// opened) and a full report of what recovery used, dropped, and replayed.
// cfg.Archive must be the same archive the original node logged to (or nil
// to skip the tail replay).
func RestoreWithReport(cfg Config, mgr *checkpoint.Manager, mode checkpoint.LoadMode) (*StorageNode, *RecoveryReport, error) {
	if cfg.Schema == nil {
		return nil, nil, errors.New("core: Restore needs Config.Schema")
	}
	t0 := time.Now()
	recs, watermark, lrep, err := mgr.LoadWithReport(cfg.Schema.Slots, mode)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{Checkpoint: lrep, Records: len(recs), Watermark: watermark}
	if cfg.Archive != nil {
		rep.Archive = cfg.Archive.Report()
		// The replay tail must actually exist: if retention truncated the
		// archive above the watermark we fell back to, events are missing
		// and the rebuilt matrix would silently lose updates.
		if first := cfg.Archive.FirstLSN(); first > watermark && cfg.Archive.NextLSN() > watermark {
			return nil, rep, fmt.Errorf(
				"core: archive starts at LSN %d but checkpoint watermark is %d: replay tail is gone",
				first, watermark)
		}
	}
	n, err := NewNode(cfg)
	if err != nil {
		return nil, rep, err
	}
	for _, rec := range recs {
		if err := n.Put(rec); err != nil {
			n.Stop()
			return nil, rep, err
		}
	}
	if cfg.Archive != nil {
		// Replay the tail in batches: each chunk is one channel send per
		// worker and one caller-coalesced apply pass instead of per-event
		// costs, which directly shortens recovery downtime.
		const replayBatch = 256
		batch := make([]event.Event, 0, replayBatch)
		err := cfg.Archive.Replay(watermark, func(_ uint64, ev event.Event) error {
			rep.TailEvents++
			batch = append(batch, ev)
			if len(batch) == replayBatch {
				n.enqueueBatch(batch, nil)
				batch = make([]event.Event, 0, replayBatch)
			}
			return nil
		})
		if err != nil {
			n.Stop()
			return nil, rep, err
		}
		if len(batch) > 0 {
			n.enqueueBatch(batch, nil)
		}
	}
	if err := n.FlushEvents(); err != nil {
		n.Stop()
		return nil, rep, err
	}
	rep.Duration = time.Since(t0)
	n.met.recovery.ObserveDuration(rep.Duration)
	return n, rep, nil
}
