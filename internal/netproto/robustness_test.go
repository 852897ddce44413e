package netproto

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/schema"
)

// rawDial opens a plain TCP connection to a server for malformed-frame
// injection.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func startServer(t *testing.T) (*Server, *core.StorageNode, *schema.Schema) {
	t.Helper()
	sch := netSchema(t)
	node, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 1, BucketSize: 32,
		IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", node, sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		node.Stop()
	})
	return srv, node, sch
}

// TestServerSurvivesMalformedFrames injects garbage and undersized frames;
// the server must drop the bad connection (or answer with an error) and
// keep serving well-formed clients.
func TestServerSurvivesMalformedFrames(t *testing.T) {
	srv, _, sch := startServer(t)

	payloads := [][]byte{
		{},                       // nothing (immediate close)
		{0x01},                   // truncated length prefix
		{0xff, 0xff, 0xff, 0x7f}, // absurd frame length
		{0x00, 0x00, 0x00, 0x00}, // zero-length frame (< header)
		{0x09, 0x00, 0x00, 0x00, 99, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown type
	}
	for i, p := range payloads {
		conn := rawDial(t, srv.Addr())
		if len(p) > 0 {
			if _, err := conn.Write(p); err != nil {
				t.Logf("payload %d: write error %v (fine)", i, err)
			}
		}
		conn.Close()
	}
	// Truncated bodies for every message type.
	for _, typ := range []uint8{msgEventBatch, msgEventSync, msgGet, msgPut, msgCondPut, msgQuery} {
		conn := rawDial(t, srv.Addr())
		var hdr [13]byte
		binary.LittleEndian.PutUint32(hdr[0:], 9+2) // 2-byte body
		hdr[4] = typ
		binary.LittleEndian.PutUint64(hdr[5:], 1)
		conn.Write(hdr[:])
		conn.Write([]byte{0xde, 0xad})
		// Give the server a beat to process, then drop the connection.
		time.Sleep(2 * time.Millisecond)
		conn.Close()
	}

	// A healthy client still works end to end.
	cli, err := Dial(srv.Addr(), sch)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put(sch.NewRecord(7)); err != nil {
		t.Fatalf("healthy client broken after garbage: %v", err)
	}
	if _, _, ok, err := cli.Get(7); err != nil || !ok {
		t.Fatalf("Get after garbage: %v %v", ok, err)
	}
}

// TestManyConcurrentClients hammers one server with parallel clients mixing
// events, gets and queries.
func TestManyConcurrentClients(t *testing.T) {
	srv, node, sch := startServer(t)
	calls := sch.MustAttrIndex("calls_today_count")

	const clients = 8
	const perClient = 100
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr(), sch)
			if err != nil {
				errCh <- err
				return
			}
			defer cli.Close()
			for i := 0; i < perClient; i++ {
				ev := event.Event{Caller: uint64(c*perClient+i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
				if err := cli.ProcessEventAsync(ev); err != nil {
					errCh <- err
					return
				}
				if i%10 == 0 {
					q := &query.Query{ID: uint64(c*1000 + i), Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
					if _, err := cli.SubmitQuery(q); err != nil {
						errCh <- err
						return
					}
				}
			}
			if err := cli.FlushEvents(); err != nil {
				errCh <- err
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := node.Stats().EventsProcessed; got != clients*perClient {
		t.Fatalf("server processed %d events, want %d", got, clients*perClient)
	}
}

// blackholeServer accepts connections and reads frames but never responds —
// the "stalled server" the paper assumes away.
func blackholeServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestCallTimeoutAgainstStalledServer: a server that never replies must not
// wedge the client forever; the call fails with ErrTimeout and the pending
// slot is reclaimed.
func TestCallTimeoutAgainstStalledServer(t *testing.T) {
	addr := blackholeServer(t)
	cli, err := DialConfig(addr, netSchema(t), ClientConfig{
		CallTimeout: 50 * time.Millisecond, MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	_, _, _, err = cli.Get(1)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Get against stalled server = %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v", el)
	}
	cli.mu.Lock()
	n := len(cli.pending)
	cli.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending requests leaked after timeout", n)
	}
}

// TestCloseFailsPendingDeterministically: Close must mark the client closed
// and fail in-flight requests immediately — racing callers cannot register
// after Close and hang (the old bug: only readLoop set closed).
func TestCloseFailsPendingDeterministically(t *testing.T) {
	addr := blackholeServer(t)
	cli, err := DialConfig(addr, netSchema(t), ClientConfig{CallTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := cli.Get(1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Get register
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight Get after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight Get hung after Close")
	}
	// New calls fail immediately and deterministically.
	for i := 0; i < 10; i++ {
		if _, _, _, err := cli.Get(1); !errors.Is(err, ErrClosed) {
			t.Fatalf("Get #%d after Close = %v, want ErrClosed", i, err)
		}
	}
	if _, err := cli.SubmitQueryAsync(&query.Query{ID: 1, GroupBy: -1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitQueryAsync after Close = %v, want ErrClosed", err)
	}
}

// TestSubmitQueryMidFlightDrop drops the connection while a query response
// is outstanding. Without reconnection the async channel must deliver an
// error promptly; with reconnection the retry path must produce the
// partial transparently.
func TestSubmitQueryMidFlightDrop(t *testing.T) {
	srv, _, sch := startServer(t)
	calls := sch.MustAttrIndex("calls_today_count")
	q := &query.Query{ID: 1, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}

	t.Run("fail-stop", func(t *testing.T) {
		plan := NewFaultPlan()
		// Slow the response read so the drop happens mid-flight.
		plan.SetReadDelay(30 * time.Millisecond)
		cli, err := DialConfig(srv.Addr(), sch, ClientConfig{
			DisableReconnect: true, CallTimeout: 5 * time.Second, Dialer: plan.Dialer(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		ch, err := cli.SubmitQueryAsync(q)
		if err != nil {
			t.Fatal(err)
		}
		plan.ResetAll()
		select {
		case r := <-ch:
			if r.Err == nil {
				t.Fatal("query survived a dropped connection without reconnect")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("async query channel hung after connection drop")
		}
		// The client is fail-stop now.
		if _, _, _, err := cli.Get(1); err == nil {
			t.Fatal("Get succeeded after drop with reconnect disabled")
		}
	})

	t.Run("reconnect-retry", func(t *testing.T) {
		plan := NewFaultPlan()
		plan.SetReadDelay(30 * time.Millisecond)
		cli, err := DialConfig(srv.Addr(), sch, ClientConfig{
			CallTimeout: 5 * time.Second, MaxRetries: 3,
			BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
			Dialer: plan.Dialer(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		ch, err := cli.SubmitQueryAsync(q)
		if err != nil {
			t.Fatal(err)
		}
		plan.ResetAll()
		plan.Heal()
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("query not retried across reconnect: %v", r.Err)
			}
			if r.Partial.QueryID != q.ID {
				t.Fatalf("partial for query %d, want %d", r.Partial.QueryID, q.ID)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("retried query never completed")
		}
		if cli.Reconnects() == 0 {
			t.Fatal("client never redialed")
		}
	})
}

// TestFlushRacesClose closes the client while FlushEvents calls are in
// flight from other goroutines: no call may hang, and post-Close flushes
// must fail with ErrClosed.
func TestFlushRacesClose(t *testing.T) {
	srv, _, sch := startServer(t)
	for round := 0; round < 5; round++ {
		cli, err := Dial(srv.Addr(), sch)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					for i := 0; i < 8; i++ {
						ev := event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1), Duration: 1, Cost: 1}
						if err := cli.ProcessEventAsync(ev); err != nil {
							return
						}
					}
					if err := cli.FlushEvents(); err != nil {
						if !errors.Is(err, ErrClosed) && !retriable(err) {
							t.Errorf("flush racing close: unexpected error %v", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		cli.Close()
		doneCh := make(chan struct{})
		go func() { wg.Wait(); close(doneCh) }()
		select {
		case <-doneCh:
		case <-time.After(5 * time.Second):
			t.Fatal("flush goroutines hung after Close")
		}
		if err := cli.FlushEvents(); !errors.Is(err, ErrClosed) {
			t.Fatalf("flush after Close = %v, want ErrClosed", err)
		}
	}
}

// TestTypedErrorsAcrossTheWire: well-known storage errors survive as typed
// error-code frames, not string matches.
func TestTypedErrorsAcrossTheWire(t *testing.T) {
	srv, node, sch := startServer(t)
	cli, err := Dial(srv.Addr(), sch)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rec := sch.NewRecord(5)
	if err := cli.Put(rec); err != nil {
		t.Fatal(err)
	}
	err = cli.ConditionalPut(rec, 999)
	if !errors.Is(err, core.ErrVersionConflict) {
		t.Fatalf("stale ConditionalPut = %v, want ErrVersionConflict via error-code frame", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != codeVersionConflict {
		t.Fatalf("not a typed RemoteError: %#v", err)
	}
	// A stopped node is a typed remote error too (and is NOT retried:
	// the node answered, so the transport is fine).
	node.Stop()
	if _, _, _, err := cli.Get(5); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("Get on stopped node = %v, want ErrStopped across the wire", err)
	}
}

// TestPipelinedQueriesOneConnection verifies the asynchronous protocol:
// many queries in flight on one connection, answered out of submission
// lockstep.
func TestPipelinedQueriesOneConnection(t *testing.T) {
	srv, _, sch := startServer(t)
	cli, err := Dial(srv.Addr(), sch)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 50; i++ {
		ev := event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	calls := sch.MustAttrIndex("calls_today_count")
	const inflight = 32
	chans := make([]<-chan core.QueryResponse, inflight)
	for i := 0; i < inflight; i++ {
		q := &query.Query{ID: uint64(i + 1), Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
		ch, err := cli.SubmitQueryAsync(q)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if r.Partial.QueryID != uint64(i+1) {
			t.Fatalf("query %d got partial for %d", i+1, r.Partial.QueryID)
		}
	}
}
