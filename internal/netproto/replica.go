package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/repl"
)

// replicaReadTimeout bounds how long a subscriber waits for the next frame.
// The primary's heartbeat must be shorter (ServeWithConfig enforces it), or
// a healthy-but-quiet primary looks dead and the follower redials forever.
const replicaReadTimeout = 2 * time.Second

// ReplicaConn is a dedicated subscription connection carrying the primary's
// log stream. It implements repl.Source, so a repl.Follower tails a remote
// primary exactly like an in-process archive.
type ReplicaConn struct {
	conn     net.Conn
	br       *bufio.Reader
	startLSN uint64
	frontier uint64
}

var _ repl.Source = (*ReplicaConn)(nil)

// DialReplica opens a log subscription against addr starting at fromLSN.
// The returned conn's StartLSN may exceed fromLSN when the primary has
// GC'd that prefix — the follower surfaces that as a typed repl.ErrGap.
func DialReplica(addr string, fromLSN uint64) (*ReplicaConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], fromLSN)
	if err := writeFrame(conn, frame{typ: msgReplSubscribe, reqID: 1, body: body[:]}); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(replicaReadTimeout))
	f, err := readFrame(br)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if f.typ != msgResp || f.reqID != 1 {
		conn.Close()
		return nil, fmt.Errorf("netproto: unexpected subscribe reply type %d", f.typ)
	}
	payload, err := splitResp(f.body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(payload) < 16 {
		conn.Close()
		return nil, errors.New("netproto: short subscribe ack")
	}
	return &ReplicaConn{
		conn:     conn,
		br:       br,
		startLSN: binary.LittleEndian.Uint64(payload[0:]),
		frontier: binary.LittleEndian.Uint64(payload[8:]),
	}, nil
}

// StartLSN is the LSN the subscription actually starts at (>= the requested
// fromLSN when the primary GC'd log below its retention floor).
func (r *ReplicaConn) StartLSN() uint64 { return r.startLSN }

// Frontier is the primary's next-LSN at subscribe time.
func (r *ReplicaConn) Frontier() uint64 { return r.frontier }

// Next blocks for the next shipped batch or heartbeat. A silent wire for
// longer than replicaReadTimeout is an error — heartbeats bound the gap
// between frames on a healthy stream.
func (r *ReplicaConn) Next() (repl.Batch, error) {
	r.conn.SetReadDeadline(time.Now().Add(replicaReadTimeout))
	f, err := readFrame(r.br)
	r.conn.SetReadDeadline(time.Time{})
	if err != nil {
		return repl.Batch{}, err
	}
	if f.typ != msgReplBatch {
		return repl.Batch{}, fmt.Errorf("netproto: unexpected frame type %d on repl stream", f.typ)
	}
	return decodeReplBatch(f.body)
}

// Close ends the subscription.
func (r *ReplicaConn) Close() error { return r.conn.Close() }
