// Package cluster implements AIM's distributed execution layer (§4.8): the
// Analytics Matrix is horizontally partitioned by entity-id across storage
// servers via a global hash, each server further partitions it across its
// RTA threads, and dimension tables plus rule sets are replicated at every
// server.
//
// Beyond the paper (which assumes a lossless fabric and permanently live
// servers), the cluster tracks per-node health with a consecutive-failure
// circuit breaker: while a node's breaker is open, fire-and-forget events
// spill into a bounded per-node retry queue replayed by a background
// drainer, so a dead or flaky storage server neither blocks the ESP
// pipeline nor silently loses the in-flight stream.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/schema"
)

// Cluster routes Get/Put/event traffic to the storage server owning each
// entity. Query scatter/gather lives in the RTA coordinator (internal/rta),
// which talks to the same Storage handles.
type Cluster struct {
	// nodes holds one atomically swappable handle per storage server, so
	// ReplaceNode can swap a restarted node in while the hot paths keep
	// reading lock-free. (Pointer-to-interface, not atomic.Value: handles
	// of different concrete types must be interchangeable.)
	nodes  []atomic.Pointer[core.Storage]
	hcfg   HealthConfig
	health []*nodeHealth

	// Follower-replica state (see replica.go). repMu guards the follower
	// lists and the per-shard promotion flag; the scan-pick and promotion
	// paths take it briefly and never across deliveries.
	rcfg         ReplicaConfig
	repMu        sync.Mutex
	followers    [][]*shardFollower
	promoting    []bool
	rr           []atomic.Uint32 // round-robin cursor per shard
	downSince    []atomic.Int64  // unix nanos the primary breaker went unhealthy
	promotions   atomic.Uint64
	replicaScans atomic.Uint64
	staleScans   atomic.Uint64
	monitorOnce  sync.Once

	drainOnce sync.Once // drainer starts lazily on first spill
	closeOnce sync.Once
	quit      chan struct{}
	wg        sync.WaitGroup
}

// Options bundles the cluster's optional tuning knobs. Zero values select
// the defaults (health tracking on, no followers).
type Options struct {
	Health   HealthConfig
	Replicas ReplicaConfig
}

// New builds a cluster over the given storage handles (in-process nodes,
// TCP clients, or a mix) with default health tracking.
func New(nodes []core.Storage) (*Cluster, error) {
	return NewWithOptions(nodes, Options{})
}

// NewWithHealth builds a cluster with an explicit health configuration.
func NewWithHealth(nodes []core.Storage, hcfg HealthConfig) (*Cluster, error) {
	return NewWithOptions(nodes, Options{Health: hcfg})
}

// NewWithOptions builds a cluster with explicit health and replica
// configurations.
func NewWithOptions(nodes []core.Storage, opts Options) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: need at least one storage node")
	}
	c := &Cluster{
		nodes:     make([]atomic.Pointer[core.Storage], len(nodes)),
		hcfg:      opts.Health.withDefaults(),
		health:    make([]*nodeHealth, len(nodes)),
		rcfg:      opts.Replicas.withDefaults(),
		followers: make([][]*shardFollower, len(nodes)),
		promoting: make([]bool, len(nodes)),
		rr:        make([]atomic.Uint32, len(nodes)),
		downSince: make([]atomic.Int64, len(nodes)),
		quit:      make(chan struct{}),
	}
	for i := range nodes {
		if nodes[i] == nil {
			return nil, fmt.Errorf("cluster: node %d is nil", i)
		}
		n := nodes[i]
		c.nodes[i].Store(&n)
		c.health[i] = &nodeHealth{}
	}
	return c, nil
}

// node returns the current handle for storage server idx.
func (c *Cluster) node(idx int) core.Storage { return *c.nodes[idx].Load() }

// ReplaceNode atomically swaps the handle of storage server idx — the
// restart path: after a crashed node recovers (checkpoint + archive-tail
// replay), the new handle takes over and the node's circuit breaker is
// reset so the spill queue accumulated during the outage replays onto the
// recovered state.
func (c *Cluster) ReplaceNode(idx int, n core.Storage) error {
	if idx < 0 || idx >= len(c.nodes) {
		return fmt.Errorf("cluster: no node %d", idx)
	}
	if n == nil {
		return errors.New("cluster: ReplaceNode needs a handle")
	}
	c.nodes[idx].Store(&n)
	if !c.disabled() {
		c.health[idx].reset()
		if c.health[idx].queued() > 0 {
			c.startDrainer()
		}
	}
	return nil
}

// NewLocal starts n in-process storage nodes with the same configuration
// and returns the cluster plus the nodes (for Stats/Stop).
func NewLocal(n int, cfg core.Config) (*Cluster, []*core.StorageNode, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("cluster: invalid node count %d", n)
	}
	nodes := make([]*core.StorageNode, 0, n)
	handles := make([]core.Storage, 0, n)
	for i := 0; i < n; i++ {
		if cfg.Metrics != nil && n > 1 {
			// Distinct {node="i"} labels keep the nodes' series apart on a
			// shared registry.
			cfg.MetricsLabel = strconv.Itoa(i)
		}
		node, err := core.NewNode(cfg)
		if err != nil {
			for _, prev := range nodes {
				prev.Stop()
			}
			return nil, nil, err
		}
		nodes = append(nodes, node)
		handles = append(handles, node)
	}
	c, err := New(handles)
	if err != nil {
		return nil, nil, err
	}
	return c, nodes, nil
}

// Close stops the background goroutines. It does not close the storage
// handles, which the caller owns. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { close(c.quit) })
	c.wg.Wait()
}

// Nodes returns the current storage handles (for the RTA coordinator).
func (c *Cluster) Nodes() []core.Storage {
	out := make([]core.Storage, len(c.nodes))
	for i := range c.nodes {
		out[i] = c.node(i)
	}
	return out
}

// Health returns a snapshot of node i's breaker and spill-queue state.
func (c *Cluster) Health(i int) NodeHealth { return c.health[i].snapshot() }

// indexFor returns the index of the storage server owning the entity — the
// paper's global hash function h. It deliberately uses a different mixer
// than the node's internal partition hash h_i so the two levels
// decorrelate.
func (c *Cluster) indexFor(entityID uint64) int {
	h := entityID * 0xD6E8FEB86659FD93
	h ^= h >> 32
	return int(h % uint64(len(c.nodes)))
}

// NodeFor returns the storage server owning the entity.
func (c *Cluster) NodeFor(entityID uint64) core.Storage {
	return c.node(c.indexFor(entityID))
}

// disabled reports whether health tracking is turned off.
func (c *Cluster) disabled() bool { return c.hcfg.FailureThreshold < 0 }

// ProcessEventAsync routes an event to its owning server. If the server's
// breaker is open (or delivery fails), the event spills to the node's
// bounded retry queue and nil is returned — the ESP pipeline keeps moving.
// Only when spilling is impossible does it fail: a NodeDownError with the
// queue disabled, a typed overload rejection with the queue full. The
// cluster forms no batches: a handle that coalesces (netproto.Client with
// EventBatch) does so behind this call.
func (c *Cluster) ProcessEventAsync(ev event.Event) error {
	idx := c.indexFor(ev.Caller)
	if c.disabled() {
		return c.node(idx).ProcessEventAsync(ev)
	}
	h := c.health[idx]
	if !h.allow(time.Now()) {
		return c.spillTail(idx, []event.Event{ev}, 0, nil)
	}
	err := c.node(idx).ProcessEventAsync(ev)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	if err == nil {
		return nil
	}
	return c.spillTail(idx, []event.Event{ev}, 0, err)
}

// startDrainer lazily launches the background goroutine that replays
// spilled events once their node's breaker lets traffic through again.
func (c *Cluster) startDrainer() {
	c.drainOnce.Do(func() {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			tick := time.NewTicker(c.hcfg.RetryInterval)
			defer tick.Stop()
			for {
				select {
				case <-c.quit:
					return
				case <-tick.C:
					for idx := range c.nodes {
						c.drainNode(idx)
					}
				}
			}
		}()
	})
}

// drainBatch bounds how many queued events one replay delivery carries. A
// modest batch keeps a recovering node from being hit with the entire spill
// queue in one call while still amortizing per-delivery costs ~64x.
const drainBatch = 64

// replayOne pops up to drainBatch queued events of one node and delivers
// them as one ProcessEventBatch; on a failure only the undelivered suffix
// goes back to the front of the queue, so no event is applied twice. It
// returns how many events it popped. replayMu is held from pop to requeue:
// the background drainer and FlushEvents therefore replay a node's queue
// strictly in stream order, and a flush cannot find the queue empty (and
// report every event landed) while a batch the drainer popped is still on
// its way to the node.
func (c *Cluster) replayOne(idx int) (int, error) {
	h := c.health[idx]
	h.replayMu.Lock()
	defer h.replayMu.Unlock()
	evs := h.popBatch(drainBatch)
	if len(evs) == 0 {
		return 0, nil
	}
	delivered, err := core.ProcessBatch(c.node(idx), evs)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	h.addReplayed(delivered)
	if err != nil {
		h.requeueFront(evs[delivered:])
	}
	return len(evs), err
}

// drainNode replays queued events for one node until the queue empties, a
// delivery fails or the breaker refuses traffic.
func (c *Cluster) drainNode(idx int) {
	h := c.health[idx]
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		if h.queued() == 0 {
			return
		}
		if !h.allow(time.Now()) {
			return
		}
		n, err := c.replayOne(idx)
		if n == 0 {
			// A flush emptied the queue meanwhile; give the probe token back.
			h.releaseProbe()
			return
		}
		if err != nil {
			return
		}
	}
}

// ProcessEvent routes an event synchronously and returns its firing count.
// Synchronous events cannot spill (the caller expects the firing count);
// with an open breaker they fail fast instead of hammering a dead node.
func (c *Cluster) ProcessEvent(ev event.Event) (int, error) {
	idx := c.indexFor(ev.Caller)
	if c.disabled() {
		return c.node(idx).ProcessEvent(ev)
	}
	h := c.health[idx]
	if !h.allow(time.Now()) {
		return 0, &NodeDownError{Node: idx, Err: c.lastErr(idx)}
	}
	n, err := c.node(idx).ProcessEvent(ev)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	return n, err
}

// flushOverloadBudget bounds how long FlushEvents keeps retrying typed
// admission-control rejections before surfacing one. Flush is a barrier:
// a node shedding load is expected to drain within moments, so waiting it
// out (paced by the server's retry-after hints) makes recovery automatic
// for callers that treat flush errors as fatal.
const flushOverloadBudget = 5 * time.Second

// retryOverloaded runs op, retrying typed overload rejections with the
// rejection's retry-after hint until the deadline passes or the cluster
// shuts down. Non-overload errors return immediately.
func (c *Cluster) retryOverloaded(deadline time.Time, op func() error) error {
	err := op()
	for err != nil && errors.Is(err, core.ErrOverloaded) && time.Now().Before(deadline) {
		retry, ok := core.RetryAfterHint(err)
		if !ok || retry <= 0 {
			retry = c.hcfg.RetryInterval
		}
		select {
		case <-c.quit:
			return err
		case <-time.After(retry):
		}
		err = op()
	}
	return err
}

// FlushEvents first synchronously replays every spilled event, then
// flushes every server's ESP queues. If a node still refuses events its
// queue is left intact and a NodeDownError is returned, so callers can
// retry the flush after the node recovers without losing the stream.
// Typed overload rejections are retried internally with the server's
// retry-after pacing (bounded by flushOverloadBudget), so a flush issued
// during a load spike resolves by waiting the spike out.
func (c *Cluster) FlushEvents() error {
	var firstErr error
	deadline := time.Now().Add(flushOverloadBudget)
	for idx := range c.nodes {
		idx := idx
		err := c.retryOverloaded(deadline, func() error { return c.flushSpilled(idx) })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for idx := range c.nodes {
		err := c.node(idx).FlushEvents()
		if !c.disabled() {
			c.health[idx].record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushSpilled synchronously drains node idx's retry queue in batches.
// Admission-control rejections surface typed (the node is alive, just
// shedding) so FlushEvents can pace its retries off the retry-after hint;
// anything else means the node is down.
func (c *Cluster) flushSpilled(idx int) error {
	for {
		n, err := c.replayOne(idx)
		if err != nil {
			if errors.Is(err, core.ErrOverloaded) {
				return fmt.Errorf("cluster: node %d: %w", idx, err)
			}
			return &NodeDownError{Node: idx, Err: err}
		}
		if n == 0 {
			return nil
		}
	}
}

// Get fetches the entity's record from its owning server.
func (c *Cluster) Get(entityID uint64) (schema.Record, uint64, bool, error) {
	idx := c.indexFor(entityID)
	if c.disabled() {
		return c.node(idx).Get(entityID)
	}
	h := c.health[idx]
	if !h.allow(time.Now()) {
		return nil, 0, false, &NodeDownError{Node: idx, Err: c.lastErr(idx)}
	}
	rec, v, ok, err := c.node(idx).Get(entityID)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	return rec, v, ok, err
}

// Put stores a record on its owning server.
func (c *Cluster) Put(rec schema.Record) error {
	idx := c.indexFor(rec.EntityID())
	if c.disabled() {
		return c.node(idx).Put(rec)
	}
	h := c.health[idx]
	if !h.allow(time.Now()) {
		return &NodeDownError{Node: idx, Err: c.lastErr(idx)}
	}
	err := c.node(idx).Put(rec)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	return err
}

// ConditionalPut conditionally stores a record on its owning server.
// Version conflicts come from a live node and do not count against it.
func (c *Cluster) ConditionalPut(rec schema.Record, expected uint64) error {
	idx := c.indexFor(rec.EntityID())
	if c.disabled() {
		return c.node(idx).ConditionalPut(rec, expected)
	}
	h := c.health[idx]
	if !h.allow(time.Now()) {
		return &NodeDownError{Node: idx, Err: c.lastErr(idx)}
	}
	err := c.node(idx).ConditionalPut(rec, expected)
	h.record(err, c.hcfg.FailureThreshold, c.hcfg.ProbeInterval)
	return err
}

func (c *Cluster) lastErr(idx int) error {
	h := c.health[idx]
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}
