package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/event"
)

// ErrOverloaded is the sentinel every admission-control rejection matches
// via errors.Is. The concrete error is *OverloadedError, which carries the
// retry hint and the layer that rejected.
var ErrOverloaded = errors.New("core: overloaded")

// ErrDeadline is returned for a query whose Deadline passed before a scan
// round picked it up. Deadline misses are the analytics side of graceful
// degradation: under overload, queries shed (typed, retriable by the
// client's policy) while ingest keeps its SLA.
var ErrDeadline = errors.New("core: query deadline exceeded")

// OverloadedError is a typed, wire-codable ingest/scan rejection. It is
// returned instead of blocking when an admission check fails, so one hot
// partition cannot stall a whole connection. RetryAfter is the server's
// backoff hint; Reason names the layer that rejected ("esp-queue",
// "delta-hard", "scan-admission", "spill-queue").
type OverloadedError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("core: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match any overload rejection.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfterHint extracts the server's backoff hint from an overload
// rejection, however deeply wrapped. ok is false when err is not an
// overload rejection.
func RetryAfterHint(err error) (d time.Duration, ok bool) {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// OverloadConfig bounds the storage node under offered load beyond
// capacity. Disabled (the zero value) preserves the legacy behavior:
// ingest blocks on full ESP queues and the delta grows without limit.
//
// With Enabled, the node degrades in the paper's priority order — the
// event stream is the SLA, analytics sheds first:
//
//  1. Queries are admission-checked against a pending bound and evicted
//     from scan rounds once past their Deadline (typed ErrDeadline).
//  2. Past the delta soft watermark, scan rounds shrink and merge cadence
//     tightens so merges catch up at the expense of scan throughput.
//  3. Only past the hard limits (ESP queue soft limit, delta hard
//     watermark) does ingest itself reject, with a typed retry-after
//     hint instead of head-of-line blocking.
type OverloadConfig struct {
	// Enabled turns admission control on. Off by default. Fire-and-forget
	// ingest then rejects when the target worker's queue holds 7/8 of
	// ESPQueueLen, leaving headroom so admitted events still never block.
	Enabled bool
	// DeltaSoftRecords is the per-partition delta size past which the scan
	// coordinator prioritizes merging (shorter rounds, smaller batches).
	// Default: 32768 records.
	DeltaSoftRecords int
	// DeltaHardRecords is the per-partition delta size past which ingest
	// rejects with retry-after, bounding delta memory. Default: 2x soft.
	DeltaHardRecords int
	// RetryAfter is the backoff hint attached to rejections. Default: 2ms.
	RetryAfter time.Duration
	// MaxPendingQueries bounds queries queued for future scan rounds;
	// submissions past it are rejected instead of queued. Default: the
	// submit queue capacity (4x MaxBatch).
	MaxPendingQueries int
}

func (c *OverloadConfig) setDefaults(submitCap int) {
	if c.DeltaSoftRecords <= 0 {
		c.DeltaSoftRecords = 32768
	}
	if c.DeltaHardRecords <= 0 {
		c.DeltaHardRecords = 2 * c.DeltaSoftRecords
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Millisecond
	}
	if c.MaxPendingQueries <= 0 || c.MaxPendingQueries > submitCap {
		c.MaxPendingQueries = submitCap
	}
}

// Watermark states exposed by aim_core_delta_watermark_state.
const (
	watermarkOK   = 0
	watermarkSoft = 1
	watermarkHard = 2
)

// watermarkState reports the node's worst per-partition delta state:
// 0 below soft, 1 past soft, 2 past hard. Safe from any goroutine.
func (n *StorageNode) watermarkState() int {
	ol := &n.cfg.Overload
	if !ol.Enabled {
		return watermarkOK
	}
	state := watermarkOK
	for _, p := range n.parts {
		pending := int(p.PendingDelta())
		switch {
		case pending >= ol.DeltaHardRecords:
			return watermarkHard
		case pending >= ol.DeltaSoftRecords:
			state = watermarkSoft
		}
	}
	return state
}

// WatermarkState reports the node's delta watermark state (0 ok, 1 soft,
// 2 hard) — the value exported by aim_core_delta_watermark_state, for
// callers that poll the node directly.
func (n *StorageNode) WatermarkState() int { return n.watermarkState() }

// MaxPendingDelta reports the largest per-partition pending-delta size, the
// quantity the watermarks gate on (observability and test hook).
func (n *StorageNode) MaxPendingDelta() int64 {
	var mx int64
	for _, p := range n.parts {
		if v := p.PendingDelta(); v > mx {
			mx = v
		}
	}
	return mx
}

// admitEvent is the fire-and-forget ingest admission check: reject (typed,
// with retry-after) when the target worker's queue is past the soft limit
// or the target partition's delta is past the hard watermark. Returns nil
// when overload protection is disabled.
func (n *StorageNode) admitEvent(entityID uint64) error {
	ol := &n.cfg.Overload
	if !ol.Enabled {
		return nil
	}
	if q := n.cfg.ESPQueueLen; len(n.workers[n.workerIndexFor(entityID)].ch) >= q-q/8 {
		return n.rejectIngest("esp-queue")
	}
	if n.partitionFor(entityID).PendingDelta() >= int64(ol.DeltaHardRecords) {
		return n.rejectIngest("delta-hard")
	}
	return nil
}

// admitBatch admits or rejects a whole batch before anything is logged or
// enqueued: all-or-nothing, so a rejected batch leaves no partial WAL
// prefix for the caller to reason about.
func (n *StorageNode) admitBatch(evs []event.Event) error {
	if !n.cfg.Overload.Enabled {
		return nil
	}
	for i := range evs {
		if err := n.admitEvent(evs[i].Caller); err != nil {
			return err
		}
	}
	return nil
}

func (n *StorageNode) rejectIngest(reason string) error {
	switch reason {
	case "esp-queue":
		n.met.rejectQueue.Inc()
	case "delta-hard":
		n.met.rejectDelta.Inc()
	}
	return &OverloadedError{RetryAfter: n.cfg.Overload.RetryAfter, Reason: reason}
}
