package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

// ErrNodeDown is the sentinel matched by errors.Is for operations refused
// because a storage node's circuit breaker is open (and, for events, the
// spill queue is full or disabled).
var ErrNodeDown = errors.New("cluster: node unavailable")

// NodeDownError reports which node was unavailable and why.
type NodeDownError struct {
	// Node is the index of the storage server in the cluster.
	Node int
	// Err is the last failure observed from the node (may be nil).
	Err error
}

func (e *NodeDownError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("cluster: node %d unavailable: %v", e.Node, e.Err)
	}
	return fmt.Sprintf("cluster: node %d unavailable", e.Node)
}

func (e *NodeDownError) Unwrap() error        { return e.Err }
func (e *NodeDownError) Is(target error) bool { return target == ErrNodeDown }

// BreakerState is a node circuit breaker's state.
type BreakerState int

const (
	// BreakerClosed: the node is healthy; traffic flows.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures crossed the threshold; traffic is
	// refused (events spill) until the probe interval elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe operation is allowed through; success
	// closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// HealthConfig tunes per-node failure tracking. The zero value selects the
// defaults.
type HealthConfig struct {
	// FailureThreshold is how many consecutive failures open the breaker
	// (default 5; negative disables health tracking entirely).
	FailureThreshold int
	// ProbeInterval is how long an open breaker waits before letting a
	// half-open probe through (default 500ms).
	ProbeInterval time.Duration
	// RetryQueue bounds the per-node spill queue for fire-and-forget
	// events while the node is down (default 4096; negative disables
	// spilling, making event routing fail fast instead). A full queue
	// refuses further events with a typed overload error carrying a
	// retry-after hint: the caller keeps them, nothing is silently lost.
	RetryQueue int
	// RetryInterval is the background drainer's pacing (default 20ms).
	RetryInterval time.Duration
	// SpillRetryAfter is the retry hint attached to overflow rejections
	// (default: RetryInterval, the drainer's pacing — the earliest a slot
	// can plausibly free up).
	SpillRetryAfter time.Duration
}

func (cfg HealthConfig) withDefaults() HealthConfig {
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.RetryQueue == 0 {
		cfg.RetryQueue = 4096
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 20 * time.Millisecond
	}
	if cfg.SpillRetryAfter <= 0 {
		cfg.SpillRetryAfter = cfg.RetryInterval
	}
	return cfg
}

// NodeHealth is an observable snapshot of one node's failure state.
type NodeHealth struct {
	State        BreakerState
	ConsecFails  int
	QueuedEvents int
	Spilled      uint64 // events ever diverted to the spill queue
	Replayed     uint64 // spilled events successfully delivered
	Rejected     uint64 // events refused with a typed overload error (caller retains them)
	LastErr      error
}

// nodeHealth is the live circuit breaker + spill queue for one node.
type nodeHealth struct {
	// replayMu serializes replay of the spill queue (Cluster.replayOne);
	// it is taken before mu and held across the delivery.
	replayMu sync.Mutex

	mu       sync.Mutex
	state    BreakerState
	fails    int
	lastErr  error
	probeAt  time.Time // when an open breaker may half-open
	probing  bool      // a half-open probe is in flight
	queue    []event.Event
	spilled  uint64
	replayed uint64
	rejected uint64
}

// allow reports whether an operation may be sent to the node right now.
// In the open state it flips to half-open once the probe interval elapsed,
// admitting exactly one probe.
func (h *nodeHealth) allow(now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Before(h.probeAt) {
			return false
		}
		h.state = BreakerHalfOpen
		h.probing = true
		return true
	default: // half-open: one probe at a time
		if h.probing {
			return false
		}
		h.probing = true
		return true
	}
}

// record folds an operation outcome into the breaker. Version conflicts
// and admission-control rejections are application-level outcomes from a
// live node, not failures: an overloaded node is shedding on purpose, and
// opening the breaker for it would turn backpressure into an outage.
func (h *nodeHealth) record(err error, threshold int, probeInterval time.Duration) {
	isFailure := err != nil &&
		!errors.Is(err, core.ErrVersionConflict) &&
		!errors.Is(err, core.ErrOverloaded)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probing = false
	if !isFailure {
		h.state = BreakerClosed
		h.fails = 0
		return
	}
	h.fails++
	h.lastErr = err
	if h.state == BreakerHalfOpen || h.fails >= threshold {
		h.state = BreakerOpen
		h.probeAt = time.Now().Add(probeInterval)
	}
}

// reset closes the breaker after the node's handle was replaced (restart
// recovery). The spill queue and its counters are preserved: the events
// queued during the outage still need to replay onto the recovered node.
func (h *nodeHealth) reset() {
	h.mu.Lock()
	h.state = BreakerClosed
	h.fails = 0
	h.lastErr = nil
	h.probing = false
	h.mu.Unlock()
}

// releaseProbe returns an unused half-open probe token (the caller decided
// not to send anything after all).
func (h *nodeHealth) releaseProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// spill queues the longest prefix of evs that fits under bound for
// background replay and returns its length (0 when the queue is disabled,
// bound < 0; everything when it is unbounded, bound == 0). Events that do
// not fit are counted as rejected: the caller keeps them and surfaces a
// typed overload error.
func (h *nodeHealth) spill(evs []event.Event, bound int) int {
	if bound < 0 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(evs)
	if bound > 0 {
		n = min(n, max(bound-len(h.queue), 0))
	}
	h.queue = append(h.queue, evs[:n]...)
	h.spilled += uint64(n)
	h.rejected += uint64(len(evs) - n)
	return n
}

// popBatch removes up to max oldest queued events, preserving their order.
// The returned slice is a copy, safe to hand to a delivery that may retain
// it.
func (h *nodeHealth) popBatch(max int) []event.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.queue) == 0 {
		return nil
	}
	n := min(max, len(h.queue))
	evs := make([]event.Event, n)
	copy(evs, h.queue[:n])
	h.queue = h.queue[n:]
	return evs
}

// requeueFront puts the undelivered suffix of a popped batch back at the
// front, preserving order relative to events queued meanwhile.
func (h *nodeHealth) requeueFront(evs []event.Event) {
	if len(evs) == 0 {
		return
	}
	h.mu.Lock()
	h.queue = append(append(make([]event.Event, 0, len(evs)+len(h.queue)), evs...), h.queue...)
	h.mu.Unlock()
}

// addReplayed counts n successfully redelivered events.
func (h *nodeHealth) addReplayed(n int) {
	if n == 0 {
		return
	}
	h.mu.Lock()
	h.replayed += uint64(n)
	h.mu.Unlock()
}

func (h *nodeHealth) queued() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queue)
}

func (h *nodeHealth) snapshot() NodeHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	return NodeHealth{
		State:        h.state,
		ConsecFails:  h.fails,
		QueuedEvents: len(h.queue),
		Spilled:      h.spilled,
		Replayed:     h.replayed,
		Rejected:     h.rejected,
		LastErr:      h.lastErr,
	}
}
