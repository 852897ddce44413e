package netproto

import (
	"sync"
	"time"

	"repro/internal/event"
)

// coalescer is the client-side event batching buffer (DESIGN.md §10):
// ProcessEventAsync appends to buf, and the batch ships as one
// msgEventBatch frame when it reaches max events, when the linger timer
// fires, or when any synchronous call needs the connection (preserving
// frame order = call order).
//
// Failure semantics mirror the uncoalesced path. A failed flush means the
// frame never took effect server-side (a clean write error sends nothing; a
// torn write kills the connection and the server discards the partial
// frame), so the batch stays buffered for the next drain attempt and the
// error is recorded in pending. The NEXT ProcessEventAsync surfaces pending
// instead of buffering its event — that event is therefore owned by the
// caller again, which lets the cluster layer spill it exactly like a failed
// frame of one.
type coalescer struct {
	mu      sync.Mutex
	buf     []event.Event
	max     int
	linger  time.Duration
	timer   *time.Timer // fires lingerFlush; created on first use
	armed   bool        // a lingerFlush fire is scheduled
	stopped bool        // Close ran; never (re-)arm again
	pending error       // sticky first delivery failure, see above
}

func newCoalescer(max int, linger time.Duration) *coalescer {
	return &coalescer{buf: make([]event.Event, 0, max), max: max, linger: linger}
}

// armLocked schedules a linger flush unless one is already pending (or
// lingering is off, or the client closed). Every path that leaves the buffer
// non-empty must call it — including failed flushes, or a quiet stream would
// strand the buffered events with a dead timer. Caller holds co.mu.
func (c *Client) armLocked() {
	co := c.co
	if co.linger <= 0 || co.armed || co.stopped {
		return
	}
	co.armed = true
	if co.timer == nil {
		co.timer = time.AfterFunc(co.linger, c.lingerFlush)
	} else {
		co.timer.Reset(co.linger)
	}
}

// bufferEvent enqueues ev, flushing when the batch is full.
func (c *Client) bufferEvent(ev event.Event) error {
	co := c.co
	co.mu.Lock()
	defer co.mu.Unlock()
	if err := co.pending; err != nil {
		co.pending = nil
		return err
	}
	if len(co.buf) >= co.max {
		// Still full from a failed flush: retry now, and reject this event
		// if the server is still unreachable rather than grow unboundedly.
		if err := c.flushEventsLocked(); err != nil {
			co.pending = nil
			// The stranded batch keeps retrying on the linger cadence.
			c.armLocked()
			return err
		}
	}
	co.buf = append(co.buf, ev)
	if len(co.buf) >= co.max {
		// Size-triggered flush. On failure the batch (including ev, which
		// the buffer now owns) is kept for redelivery and the error is
		// surfaced by the next send.
		_ = c.flushEventsLocked()
	}
	if len(co.buf) > 0 {
		c.armLocked()
	}
	return nil
}

// lingerFlush drains a size-incomplete batch when the linger deadline hits.
// A failed flush re-arms the timer: the buffer is still non-empty, and on a
// quiet stream no other trigger would retry it.
func (c *Client) lingerFlush() {
	co := c.co
	co.mu.Lock()
	co.armed = false
	if len(co.buf) > 0 {
		if c.flushEventsLocked() != nil {
			c.armLocked()
		}
	}
	co.mu.Unlock()
}

// drainEvents force-flushes the buffer and reports any undelivered batch.
func (c *Client) drainEvents() error {
	if c.co == nil {
		return nil
	}
	co := c.co
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.buf) == 0 {
		err := co.pending
		co.pending = nil
		return err
	}
	err := c.flushEventsLocked()
	co.pending = nil
	return err
}

// drainForOrder best-effort-flushes buffered events before a synchronous
// call so the server sees frames in call order (read-your-writes on one
// connection). A failure stays in pending for the event path to surface.
func (c *Client) drainForOrder() {
	if c.co == nil {
		return
	}
	c.co.mu.Lock()
	if len(c.co.buf) > 0 {
		_ = c.flushEventsLocked()
	}
	c.co.mu.Unlock()
}

// flushEventsLocked ships the buffered batch as one frame. Caller holds
// co.mu. On failure the events stay buffered and pending records the cause.
func (c *Client) flushEventsLocked() error {
	co := c.co
	co.pending = c.sendEvents(co.buf)
	if co.pending == nil {
		co.buf = co.buf[:0]
	}
	return co.pending
}
