package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/schema"
)

// Server exposes a storage node over TCP. Event batch frames are applied with
// fire-and-forget semantics (the ESP stream) exactly as they arrive — the
// server forms no batches of its own; request/response frames are
// answered in order of completion, with query work running asynchronously
// so slow scans never block the event path (§4.2: ESP communication is
// synchronous, RTA communication is asynchronous).
type Server struct {
	node core.Storage
	sch  *schema.Schema
	ln   net.Listener
	cfg  ServerConfig

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once
}

// ServerConfig tunes server behavior; the zero value is the default.
type ServerConfig struct {
	// Metrics, when set, instruments request handling (see
	// NewServerMetrics). Nil disables instrumentation at zero cost.
	Metrics *ServerMetrics
	// ReplArchive, when set, enables the WAL log-shipping stream
	// (DESIGN.md §12): msgReplSubscribe subscribers tail this archive —
	// normally the served node's own event WAL.
	ReplArchive *archive.Archive
	// ReplHeartbeat bounds how long a quiet subscription goes without a
	// frontier heartbeat (0 selects the repl package default). It must be
	// shorter than the subscriber's 2s read timeout.
	ReplHeartbeat time.Duration
	// ReplBatch caps events per shipped msgReplBatch frame (0 = default).
	ReplBatch int
	// OnPromote, when set, answers msgReplPromote: it seals the local
	// follower's replay and returns the sealed watermark. Nil rejects
	// promote requests (this server is not a follower).
	OnPromote func() (uint64, error)
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") backed by node.
func Serve(addr string, node core.Storage, sch *schema.Schema) (*Server, error) {
	return ServeWithConfig(addr, node, sch, ServerConfig{})
}

// ServeWithConfig starts a server with an explicit ServerConfig.
func ServeWithConfig(addr string, node core.Storage, sch *schema.Schema, cfg ServerConfig) (*Server, error) {
	if cfg.ReplHeartbeat >= replicaReadTimeout {
		return nil, fmt.Errorf("netproto: repl heartbeat %v must be shorter than the subscriber read timeout %v",
			cfg.ReplHeartbeat, replicaReadTimeout)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		node:  node,
		sch:   sch,
		ln:    ln,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		quit:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every connection and waits for handlers.
// Idempotent: extra calls just wait for the first shutdown to finish.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
				return // listener failed; nothing more to accept
			}
		}
		s.mu.Lock()
		select {
		case <-s.quit:
			// Accepted while Close was closing the registered connections:
			// registering now would leave a handler nobody ever closes.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	reply := func(reqID uint64, body []byte) {
		writeMu.Lock()
		defer writeMu.Unlock()
		_ = writeFrame(conn, frame{typ: msgResp, reqID: reqID, body: body})
	}
	var pendingQueries sync.WaitGroup
	defer pendingQueries.Wait()

	// Replication stream state: at most one subscription per connection.
	// The teardown defer runs before pendingQueries.Wait (LIFO) so the
	// sender goroutine is unblocked — Close on the source wakes a pending
	// Next, Close on the conn fails its next write.
	var replMu sync.Mutex
	var replSrc repl.Source
	defer func() {
		replMu.Lock()
		src := replSrc
		replMu.Unlock()
		if src != nil {
			conn.Close()
			src.Close()
		}
	}()

	// Reads are buffered: one kernel read can surface many small frames.
	br := bufio.NewReaderSize(conn, 64<<10)
	// Rejection state. Fire-and-forget events have no reply frame, so every
	// event the server fails to ingest — shed by admission control, failed
	// by the WAL, or in a malformed batch — is remembered, and the
	// connection's next msgFlush answers with the count and the last typed
	// error instead of pretending every event landed. An overload rejection
	// also pushes an msgOverload frame, throttled to one per retry-after
	// window, telling the client to fail ingest locally for a while.
	var rejected uint64
	var lastReject error
	var lastPush time.Time
	reject := func(err error, n int) {
		if n <= 0 {
			return
		}
		rejected += uint64(n)
		lastReject = err
		if !errors.Is(err, core.ErrOverloaded) {
			return
		}
		retry, _ := core.RetryAfterHint(err)
		if now := time.Now(); now.Sub(lastPush) >= retry {
			lastPush = now
			var body [16]byte
			binary.LittleEndian.PutUint64(body[0:], uint64(retry))
			binary.LittleEndian.PutUint64(body[8:], rejected)
			writeMu.Lock()
			_ = writeFrame(conn, frame{typ: msgOverload, body: body[:]})
			writeMu.Unlock()
		}
	}

	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		t0 := time.Now()
		switch f.typ {
		case msgEventBatch:
			// The one fire-and-forget branch: the ESP stream arrives as
			// batches (a lone event is a batch of one) and each is applied
			// as it stands. Errors surface via msgFlush.
			evs, err := decodeEventBatch(f.body)
			if err != nil {
				// Count the body's whole events as rejected, at least one.
				reject(err, max(1, len(f.body)/event.WireSize))
				continue
			}
			s.cfg.Metrics.eventsReceived(len(evs))
			applied, err := core.ProcessBatch(s.node, evs)
			reject(err, len(evs)-applied)
		case msgEventSync:
			var ev event.Event
			if err := ev.Decode(f.body); err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			firings, err := s.node.ProcessEvent(ev)
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			var out [4]byte
			binary.LittleEndian.PutUint32(out[:], uint32(firings))
			reply(f.reqID, okBody(out[:]))
		case msgFlush:
			if err := s.node.FlushEvents(); err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			if rejected > 0 {
				// The queues are drained, but some events on this connection
				// never entered them. A clean flush would claim every prior
				// event was applied; report the loss typed instead.
				n := rejected
				rejected = 0
				reply(f.reqID, errBody(fmt.Errorf("%d events rejected since last flush: %w", n, lastReject)))
				continue
			}
			reply(f.reqID, okBody(nil))
		case msgGet:
			if len(f.body) < 8 {
				reply(f.reqID, errBody(errors.New("short get frame")))
				continue
			}
			entity := binary.LittleEndian.Uint64(f.body)
			rec, version, found, err := s.node.Get(entity)
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			out := make([]byte, 9, 9+schema.EncodedSize(s.sch.Slots))
			if found {
				out[0] = 1
			}
			binary.LittleEndian.PutUint64(out[1:], version)
			if found {
				buf := make([]byte, schema.EncodedSize(len(rec)))
				schema.EncodeRecord(rec, buf)
				out = append(out, buf...)
			}
			reply(f.reqID, okBody(out))
		case msgPut:
			rec, err := schema.DecodeRecord(f.body, s.sch.Slots)
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			if err := s.node.Put(rec); err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			reply(f.reqID, okBody(nil))
		case msgCondPut:
			if len(f.body) < 8 {
				reply(f.reqID, errBody(errors.New("short conditional put frame")))
				continue
			}
			version := binary.LittleEndian.Uint64(f.body)
			rec, err := schema.DecodeRecord(f.body[8:], s.sch.Slots)
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			if err := s.node.ConditionalPut(rec, version); err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			reply(f.reqID, okBody(nil))
		case msgQuery:
			q, err := query.DecodeQuery(f.body)
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			ch, err := s.node.SubmitQueryAsync(q)
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			// Answer asynchronously when the shared scan completes.
			pendingQueries.Add(1)
			go func(reqID uint64, ch <-chan core.QueryResponse) {
				defer pendingQueries.Done()
				r := <-ch
				if r.Err != nil {
					reply(reqID, errBody(r.Err))
					return
				}
				reply(reqID, okBody(query.EncodePartial(r.Partial)))
				s.cfg.Metrics.observe(msgQuery, t0)
			}(f.reqID, ch)
		case msgReplSubscribe:
			if s.cfg.ReplArchive == nil {
				reply(f.reqID, errBody(errors.New("replication not enabled on this server")))
				continue
			}
			if len(f.body) < 8 {
				reply(f.reqID, errBody(errors.New("short repl subscribe frame")))
				continue
			}
			from := binary.LittleEndian.Uint64(f.body)
			// Clamp a request below the retention floor up to the floor: the
			// follower sees the jump as a typed ErrGap at apply time instead
			// of a string error here.
			if floor := s.cfg.ReplArchive.FirstLSN(); from < floor {
				from = floor
			}
			replMu.Lock()
			if replSrc != nil {
				replMu.Unlock()
				reply(f.reqID, errBody(errors.New("connection already subscribed")))
				continue
			}
			src := repl.NewArchiveSource(s.cfg.ReplArchive, from, repl.ArchiveSourceConfig{
				MaxEvents: s.cfg.ReplBatch,
				Heartbeat: s.cfg.ReplHeartbeat,
			})
			replSrc = src
			replMu.Unlock()
			var out [16]byte
			binary.LittleEndian.PutUint64(out[0:], from)
			binary.LittleEndian.PutUint64(out[8:], s.cfg.ReplArchive.NextLSN())
			reply(f.reqID, okBody(out[:]))
			pendingQueries.Add(1)
			go func() {
				defer pendingQueries.Done()
				streamRepl(conn, &writeMu, src)
			}()
		case msgReplProbe:
			if s.cfg.ReplArchive == nil {
				reply(f.reqID, errBody(errors.New("replication not enabled on this server")))
				continue
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], s.cfg.ReplArchive.NextLSN())
			reply(f.reqID, okBody(out[:]))
		case msgReplPromote:
			if s.cfg.OnPromote == nil {
				reply(f.reqID, errBody(errors.New("promotion not supported on this server")))
				continue
			}
			sealed, err := s.cfg.OnPromote()
			if err != nil {
				reply(f.reqID, errBody(err))
				continue
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], sealed)
			reply(f.reqID, okBody(out[:]))
		default:
			reply(f.reqID, errBody(fmt.Errorf("unknown message type %d", f.typ)))
		}
		// Per-op handling latency for the synchronous request types; the
		// event stream is counted (not timed) and queries are observed by
		// their async responder above. Error paths `continue` past this.
		switch f.typ {
		case msgEventSync, msgFlush, msgGet, msgPut, msgCondPut:
			s.cfg.Metrics.observe(f.typ, t0)
		}
	}
}

// streamRepl pushes msgReplBatch frames to a subscriber until the source or
// the connection dies. A failure closes the connection so the read loop ends
// with it; the subscriber resubscribes from its applied watermark.
func streamRepl(conn net.Conn, writeMu *sync.Mutex, src repl.Source) {
	defer src.Close()
	for {
		b, err := src.Next()
		if err != nil {
			conn.Close()
			return
		}
		writeMu.Lock()
		werr := writeFrame(conn, frame{typ: msgReplBatch, body: encodeReplBatch(b)})
		writeMu.Unlock()
		if werr != nil {
			conn.Close()
			return
		}
	}
}
