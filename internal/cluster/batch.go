package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

// ProcessEventBatch routes a batch of events to their owning servers: the
// events are bucketed by owner (preserving per-caller order) and delivered
// as one batch per touched node. The cluster only routes batches; it never
// forms or holds one.
func (c *Cluster) ProcessEventBatch(evs []event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if len(c.nodes) == 1 {
		return c.deliverBatch(0, evs)
	}
	buckets := make([][]event.Event, len(c.nodes))
	for _, ev := range evs {
		idx := c.indexFor(ev.Caller)
		buckets[idx] = append(buckets[idx], ev)
	}
	var firstErr error
	for idx, bucket := range buckets {
		if err := c.deliverBatch(idx, bucket); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// deliverBatch sends one batch to its node through the health machinery:
// breaker-open or failed deliveries spill the undelivered suffix to the
// node's retry queue (the delivered prefix is never requeued, so no event is
// applied twice by this path). With health tracking disabled there is no
// spill queue: the caller keeps the undelivered suffix.
func (c *Cluster) deliverBatch(idx int, evs []event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if c.disabled() {
		delivered, err := core.ProcessBatch(c.node(idx), evs)
		return partialError(delivered, err)
	}
	h := c.health[idx]
	if !h.allow(time.Now()) {
		return c.spillTail(idx, evs, 0, nil)
	}
	delivered, err := core.ProcessBatch(c.node(idx), evs)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	if err != nil {
		return c.spillTail(idx, evs, delivered, err)
	}
	return nil
}

// spillTail queues evs[delivered:] for background replay — the one place
// spill admission is decided, for a routed batch's undelivered suffix and
// for a single event alike. Events that do not fit the bounded queue (or
// any event, with the queue disabled) are NOT accepted: the caller keeps
// them and gets a typed error — an overload rejection with a retry-after
// hint for a full queue, a NodeDownError wrapping cause (or the node's last
// failure) for a disabled one.
func (c *Cluster) spillTail(idx int, evs []event.Event, delivered int, cause error) error {
	spilled := c.health[idx].spill(evs[delivered:], c.hcfg.RetryQueue)
	if spilled > 0 {
		c.startDrainer()
	}
	accepted := delivered + spilled
	if accepted == len(evs) {
		return nil
	}
	var err error
	if c.hcfg.RetryQueue < 0 {
		if cause == nil {
			cause = c.lastErr(idx)
		}
		err = &NodeDownError{Node: idx, Err: cause}
	} else {
		err = fmt.Errorf("cluster: node %d: %w", idx,
			&core.OverloadedError{RetryAfter: c.hcfg.SpillRetryAfter, Reason: "spill-queue"})
	}
	return partialError(accepted, err)
}

// partialError names the prefix of a failed batch the cluster took
// ownership of (delivered or spilled), so the caller resubmits only the
// rest. A bare error means nothing was accepted.
func partialError(accepted int, err error) error {
	if err == nil || accepted == 0 {
		return err
	}
	return &core.PartialBatchError{Applied: accepted, Err: err}
}
