package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/schema"
)

// ErrClosed is returned for operations against a Close()d client.
var ErrClosed = errors.New("netproto: client closed")

// ErrTimeout marks an RPC that exceeded ClientConfig.CallTimeout. The
// request is abandoned; a late response is discarded by the read loop.
var ErrTimeout = errors.New("netproto: call timed out")

// Client is a TCP storage handle implementing core.Storage, so ESP routers
// and RTA coordinators can drive remote storage servers exactly like
// in-process ones. Unless DisableReconnect is set it transparently redials
// after connection loss (exponential backoff, full jitter) and retries
// idempotent operations (Get, SubmitQuery, FlushEvents) up to MaxRetries
// times; every call is bounded by CallTimeout.
type Client struct {
	addr string
	sch  *schema.Schema
	cfg  ClientConfig

	writeMu sync.Mutex // serializes frame writes on the live conn

	co *coalescer // event batching buffer; nil when EventBatch <= 1

	// rejectUntil (unix nanos) is the end of the local ingest-rejection
	// window opened by a server msgOverload push: until then, fire-and-
	// forget ingest fails synchronously with a typed overload error so the
	// caller's spill/retry machinery engages instead of shipping frames the
	// server would drop. 0 = no window.
	rejectUntil atomic.Int64

	redialMu sync.Mutex // single-flights reconnect attempts

	mu         sync.Mutex
	conn       net.Conn
	gen        uint64 // connection generation, bumped per (re)dial
	pending    map[uint64]*pendingCall
	nextID     uint64
	closed     bool
	lastErr    error     // why the last conn died / last dial failed
	dialFails  int       // consecutive failed dials (backoff exponent)
	redialAt   time.Time // earliest next dial attempt
	reconnects uint64    // successful redials (observability)
}

// pendingCall is one in-flight request. Exactly one result is ever
// delivered to ch (buffered), by whichever of readLoop / connLost / Close
// removes the entry from the pending map first.
type pendingCall struct {
	ch  chan callResult
	gen uint64
}

type callResult struct {
	f   frame
	err error
}

var _ core.Storage = (*Client)(nil)

// Dial connects to a storage server with the default fault-tolerance
// configuration. The client must use the same schema as the server.
func Dial(addr string, sch *schema.Schema) (*Client, error) {
	return DialConfig(addr, sch, ClientConfig{})
}

// DialConfig connects with an explicit ClientConfig. The initial dial is
// eager: an unreachable server fails here, not on first use.
func DialConfig(addr string, sch *schema.Schema, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	conn, err := cfg.Dialer(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		addr:    addr,
		sch:     sch,
		cfg:     cfg,
		conn:    conn,
		gen:     1,
		pending: make(map[uint64]*pendingCall),
	}
	if cfg.EventBatch > 1 {
		c.co = newCoalescer(cfg.EventBatch, cfg.EventLinger)
	}
	go c.readLoop(conn, 1)
	return c, nil
}

// Reconnects reports how many times the client successfully redialed.
func (c *Client) Reconnects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Close shuts the client down: the connection is closed and every queued
// or pending request fails with ErrClosed immediately and deterministically
// (callers racing Close can no longer register afterwards).
func (c *Client) Close() error {
	if c.co != nil {
		// Best-effort final drain so coalesced events are not silently
		// dropped, then stop the linger timer for good (stopped bars the
		// failure-retry paths from re-arming it against a closed client).
		_ = c.drainEvents()
		c.co.mu.Lock()
		c.co.stopped = true
		if c.co.timer != nil {
			c.co.timer.Stop()
		}
		c.co.mu.Unlock()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	failed := c.takePendingLocked(c.gen)
	c.mu.Unlock()
	for _, pc := range failed {
		pc.ch <- callResult{err: ErrClosed}
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// takePendingLocked removes and returns every pending call registered on
// generation <= gen. Caller holds c.mu.
func (c *Client) takePendingLocked(gen uint64) []*pendingCall {
	var out []*pendingCall
	for id, pc := range c.pending {
		if pc.gen <= gen {
			delete(c.pending, id)
			out = append(out, pc)
		}
	}
	return out
}

func (c *Client) readLoop(conn net.Conn, gen uint64) {
	for {
		f, err := readFrame(conn)
		if err != nil {
			c.connLost(conn, gen, err)
			return
		}
		if f.typ == msgOverload {
			c.noteOverloadPush(f.body)
			continue
		}
		if f.typ != msgResp {
			continue
		}
		c.mu.Lock()
		pc := c.pending[f.reqID]
		if pc != nil {
			delete(c.pending, f.reqID)
		}
		c.mu.Unlock()
		if pc != nil {
			pc.ch <- callResult{f: f}
		}
	}
}

// noteOverloadPush opens (or extends) the local ingest-rejection window
// from a server msgOverload push. The window is the server's retry-after
// hint plus up to 50% jitter, so a fleet of clients backing off together
// does not re-converge on the server in one synchronized wave.
func (c *Client) noteOverloadPush(body []byte) {
	if len(body) < 8 {
		return
	}
	retry := time.Duration(binary.LittleEndian.Uint64(body))
	if retry <= 0 {
		retry = time.Millisecond
	}
	window := retry + rand.N(retry/2+1)
	until := time.Now().Add(window).UnixNano()
	for {
		cur := c.rejectUntil.Load()
		if cur >= until || c.rejectUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// ingestRejection returns the typed error for an open rejection window, or
// nil when ingest may proceed.
func (c *Client) ingestRejection() error {
	until := c.rejectUntil.Load()
	if until == 0 {
		return nil
	}
	remain := until - time.Now().UnixNano()
	if remain <= 0 {
		return nil
	}
	return &core.OverloadedError{RetryAfter: time.Duration(remain), Reason: "remote"}
}

// connLost tears down one connection generation: the conn is closed, and
// every request pending on it fails now rather than blocking forever.
func (c *Client) connLost(conn net.Conn, gen uint64, cause error) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		c.lastErr = cause
	}
	failed := c.takePendingLocked(gen)
	c.mu.Unlock()
	err := fmt.Errorf("netproto: connection lost: %w", cause)
	for _, pc := range failed {
		pc.ch <- callResult{err: err}
	}
}

// ensureConn returns the live connection, redialing (with single-flight
// and jittered exponential backoff) if the previous one died.
func (c *Client) ensureConn() (net.Conn, uint64, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if c.conn != nil {
		conn, gen := c.conn, c.gen
		c.mu.Unlock()
		return conn, gen, nil
	}
	c.mu.Unlock()

	c.redialMu.Lock()
	defer c.redialMu.Unlock()
	// Re-check: another caller may have redialed while we waited.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if c.conn != nil {
		conn, gen := c.conn, c.gen
		c.mu.Unlock()
		return conn, gen, nil
	}
	if c.cfg.DisableReconnect {
		err := c.lastErr
		c.mu.Unlock()
		if err != nil {
			return nil, 0, fmt.Errorf("netproto: connection closed: %w", err)
		}
		return nil, 0, errors.New("netproto: connection closed")
	}
	wait := time.Until(c.redialAt)
	c.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}

	conn, err := c.cfg.Dialer(c.addr, dialTimeout)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		return nil, 0, ErrClosed
	}
	if err != nil {
		c.dialFails++
		c.redialAt = time.Now().Add(c.cfg.backoffFor(c.dialFails))
		c.lastErr = err
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("netproto: reconnect %s: %w", c.addr, err)
	}
	c.dialFails = 0
	c.redialAt = time.Time{}
	c.reconnects++
	c.cfg.Metrics.reconnected()
	c.conn = conn
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	go c.readLoop(conn, gen)
	return conn, gen, nil
}

// register allocates a request id and its response slot on generation gen.
func (c *Client) register(gen uint64) (uint64, *pendingCall, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	if c.conn == nil || c.gen != gen {
		return 0, nil, errors.New("netproto: connection lost during register")
	}
	c.nextID++
	id := c.nextID
	pc := &pendingCall{ch: make(chan callResult, 1), gen: gen}
	c.pending[id] = pc
	return id, pc, nil
}

// unregister drops a request that never made it onto the wire.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *Client) send(conn net.Conn, f frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return writeFrame(conn, f)
}

// await blocks for the response to request id, bounded by CallTimeout.
// On timeout the pending entry is removed so the slot cannot leak; if the
// result was already in flight it is consumed instead.
func (c *Client) await(id uint64, pc *pendingCall) (frame, error) {
	var timeCh <-chan time.Time
	if c.cfg.CallTimeout > 0 {
		t := time.NewTimer(c.cfg.CallTimeout)
		defer t.Stop()
		timeCh = t.C
	}
	select {
	case r := <-pc.ch:
		return r.f, r.err
	case <-timeCh:
		c.mu.Lock()
		_, still := c.pending[id]
		if still {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if !still {
			// A deliverer removed the entry first; its result is (or is
			// about to be) in the buffered channel.
			r := <-pc.ch
			return r.f, r.err
		}
		return frame{}, fmt.Errorf("%w after %v", ErrTimeout, c.cfg.CallTimeout)
	}
}

// callOnce performs one request/response attempt. Transport-level failures
// (send error, connection loss, timeout) are retriable; RemoteErrors mean
// the server is alive and are final.
func (c *Client) callOnce(typ uint8, body []byte) ([]byte, error) {
	conn, gen, err := c.ensureConn()
	if err != nil {
		return nil, err
	}
	id, pc, err := c.register(gen)
	if err != nil {
		return nil, err
	}
	if err := c.send(conn, frame{typ: typ, reqID: id, body: body}); err != nil {
		c.unregister(id)
		// A failed write leaves the stream in an unknown state; tear the
		// conn down NOW (not when the read loop notices) so a retry
		// redials instead of burning attempts on a known-dead conn.
		c.connLost(conn, gen, err)
		return nil, err
	}
	f, err := c.await(id, pc)
	if err != nil {
		return nil, err
	}
	return splitResp(f.body)
}

// retriable reports whether err is a transport-level failure worth a fresh
// attempt. Application errors (RemoteError) and ErrClosed are final.
func retriable(err error) bool {
	var re *RemoteError
	return err != nil && !errors.As(err, &re) && !errors.Is(err, ErrClosed)
}

// call runs an RPC; idempotent ops survive transport faults via reconnect
// and bounded retries with backoff.
func (c *Client) call(typ uint8, body []byte, idempotent bool) ([]byte, error) {
	c.drainForOrder()
	t0 := time.Now()
	attempts := 1
	if idempotent && !c.cfg.DisableReconnect {
		attempts += c.cfg.MaxRetries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.cfg.Metrics.retried()
			time.Sleep(c.cfg.backoffFor(i))
		}
		payload, err := c.callOnce(typ, body)
		if err == nil {
			c.cfg.Metrics.observeCall(typ, t0, nil)
			return payload, nil
		}
		if !retriable(err) {
			c.cfg.Metrics.observeCall(typ, t0, err)
			return nil, err
		}
		lastErr = err
	}
	c.cfg.Metrics.observeCall(typ, t0, lastErr)
	return nil, lastErr
}

// ProcessEventAsync hands an event to the ESP stream fire-and-forget. With
// EventBatch > 1 it joins the coalescing buffer; otherwise it ships now as
// a batch frame of one and a write error is returned synchronously. It is
// not transparently retried: delivery of a failed write is unknown, so
// replay is left to the cluster layer's spill queue, which owns
// at-least-once semantics for the ESP stream.
func (c *Client) ProcessEventAsync(ev event.Event) error {
	if err := c.ingestRejection(); err != nil {
		return err
	}
	if c.co != nil {
		return c.bufferEvent(ev)
	}
	return c.sendEvents([]event.Event{ev})
}

// ProcessEventBatch ships evs as one fire-and-forget frame, taking
// ownership of the slice. Like ProcessEventAsync it is not transparently
// retried.
func (c *Client) ProcessEventBatch(evs []event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if err := c.ingestRejection(); err != nil {
		return err
	}
	if c.co != nil {
		// Individually coalesced events were submitted first; keep order.
		if err := c.drainEvents(); err != nil {
			return err
		}
	}
	return c.sendEvents(evs)
}

// sendEvents writes evs as one msgEventBatch frame — the only place a
// fire-and-forget event frame is written, whether it carries a lone event,
// a caller-formed batch or a coalescer flush. A failed write tears the
// connection down (the server discards a torn frame), so an error means the
// frame did not take effect.
func (c *Client) sendEvents(evs []event.Event) error {
	conn, gen, err := c.ensureConn()
	if err != nil {
		return err
	}
	if err := c.send(conn, frame{typ: msgEventBatch, body: encodeEventBatch(evs)}); err != nil {
		c.connLost(conn, gen, err)
		return err
	}
	c.cfg.Metrics.eventsSent(len(evs))
	return nil
}

// ProcessEvent ships an event and waits for its firing count. Not
// idempotent (it mutates the matrix), hence no transparent retry.
func (c *Client) ProcessEvent(ev event.Event) (int, error) {
	var buf [event.WireSize]byte
	ev.Encode(buf[:])
	payload, err := c.call(msgEventSync, buf[:], false)
	if err != nil {
		return 0, err
	}
	if len(payload) < 4 {
		return 0, errors.New("netproto: short event response")
	}
	return int(binary.LittleEndian.Uint32(payload)), nil
}

// FlushEvents drains the client's coalescing buffer and then the server's
// ESP queues. Because frames on one connection are processed in order, the
// flush also covers every event this client sent before it. A nil return
// therefore means every accepted event reached the server and was applied;
// an undelivered coalesced batch surfaces here (and stays buffered, so a
// later retry can still deliver it). The server round trip is idempotent
// and retried.
func (c *Client) FlushEvents() error {
	if err := c.drainEvents(); err != nil {
		return err
	}
	_, err := c.call(msgFlush, nil, true)
	return err
}

// ReplProbe asks the server for its log frontier (next LSN) — the lag
// probe: frontier minus a follower's applied watermark is its lag in
// events. Idempotent, so transport faults are retried.
func (c *Client) ReplProbe() (uint64, error) {
	payload, err := c.call(msgReplProbe, nil, true)
	if err != nil {
		return 0, err
	}
	if len(payload) < 8 {
		return 0, errors.New("netproto: short repl probe reply")
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// Promote asks a follower server to seal its replay at its watermark and
// returns the sealed LSN (the manual-promotion handshake). Idempotent: the
// server returns the same watermark on a repeat.
func (c *Client) Promote() (uint64, error) {
	payload, err := c.call(msgReplPromote, nil, true)
	if err != nil {
		return 0, err
	}
	if len(payload) < 8 {
		return 0, errors.New("netproto: short promote reply")
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// Get fetches a record; idempotent, so transport faults are retried.
func (c *Client) Get(entityID uint64) (schema.Record, uint64, bool, error) {
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], entityID)
	payload, err := c.call(msgGet, body[:], true)
	if err != nil {
		return nil, 0, false, err
	}
	if len(payload) < 9 {
		return nil, 0, false, errors.New("netproto: short get response")
	}
	found := payload[0] == 1
	version := binary.LittleEndian.Uint64(payload[1:])
	if !found {
		return nil, 0, false, nil
	}
	rec, err := schema.DecodeRecord(payload[9:], c.sch.Slots)
	if err != nil {
		return nil, 0, false, err
	}
	return rec, version, true, nil
}

// Put stores a record unconditionally. A retry would bump the version
// twice, so transport faults are surfaced to the caller.
func (c *Client) Put(rec schema.Record) error {
	body := make([]byte, schema.EncodedSize(len(rec)))
	schema.EncodeRecord(rec, body)
	_, err := c.call(msgPut, body, false)
	return err
}

// ConditionalPut stores a record guarded by its version. Remote version
// conflicts arrive as typed error-code frames, so
// errors.Is(err, core.ErrVersionConflict) holds across the wire and ESP
// retry loops work unchanged.
func (c *Client) ConditionalPut(rec schema.Record, expected uint64) error {
	body := make([]byte, 8+schema.EncodedSize(len(rec)))
	binary.LittleEndian.PutUint64(body, expected)
	schema.EncodeRecord(rec, body[8:])
	_, err := c.call(msgCondPut, body, false)
	return err
}

// SubmitQueryAsync ships a query and returns a channel that delivers the
// server-level partial when the remote shared scan completes. The wait is
// bounded by CallTimeout; on transport failure the query (idempotent) is
// retried on a fresh connection before the error is delivered.
func (c *Client) SubmitQueryAsync(q *query.Query) (<-chan core.QueryResponse, error) {
	c.drainForOrder()
	t0 := time.Now()
	body := query.EncodeQuery(q)
	conn, gen, err := c.ensureConn()
	if err != nil {
		return nil, err
	}
	id, pc, err := c.register(gen)
	if err != nil {
		return nil, err
	}
	if err := c.send(conn, frame{typ: msgQuery, reqID: id, body: body}); err != nil {
		c.unregister(id)
		c.connLost(conn, gen, err)
		return nil, err
	}
	out := make(chan core.QueryResponse, 1)
	go func() {
		var payload []byte
		f, err := c.await(id, pc)
		if err == nil {
			payload, err = splitResp(f.body)
		}
		if err != nil && retriable(err) && !c.cfg.DisableReconnect {
			for i := 1; i <= c.cfg.MaxRetries; i++ {
				c.cfg.Metrics.retried()
				time.Sleep(c.cfg.backoffFor(i))
				payload, err = c.callOnce(msgQuery, body)
				if err == nil || !retriable(err) {
					break
				}
			}
		}
		c.cfg.Metrics.observeCall(msgQuery, t0, err)
		if err != nil {
			out <- core.QueryResponse{Err: err}
			return
		}
		p, err := query.DecodePartial(payload)
		if err != nil {
			out <- core.QueryResponse{Err: err}
			return
		}
		out <- core.QueryResponse{Partial: p}
	}()
	return out, nil
}

// SubmitQuery ships a query and waits for the partial.
func (c *Client) SubmitQuery(q *query.Query) (*query.Partial, error) {
	ch, err := c.SubmitQueryAsync(q)
	if err != nil {
		return nil, err
	}
	r := <-ch
	return r.Partial, r.Err
}
