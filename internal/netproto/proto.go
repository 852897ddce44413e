// Package netproto implements AIM's network protocol (§4.2): a
// length-framed binary TCP protocol carrying the storage interface —
// synchronous Get/Put/event traffic from ESP nodes and asynchronous query
// submission from RTA nodes. The paper runs the same logical protocol over
// Infiniband; see DESIGN.md for the substitution note.
//
// Frame layout (little endian):
//
//	u32 length   // bytes after this field
//	u8  type     // message type
//	u64 reqID    // request correlation id (0 for fire-and-forget)
//	...body      // type-specific payload
//
// Responses carry a status byte: 0 = ok (payload follows), 1 = error (u8
// error code, then UTF-8 message). Error codes let well-known storage
// errors (version conflict, stopped node) survive the wire as typed errors
// instead of string matches.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/repl"
)

// Message types.
const (
	_            uint8 = iota + 1 // reserved: 1 was msgEvent, retired (a lone event is a msgEventBatch of one)
	msgEventSync                  // body: 64 B event; resp: i32 firings
	msgFlush                      // resp: empty
	msgGet                        // body: u64 entity; resp: u8 found, u64 version, record
	msgPut                        // body: record; resp: empty
	msgCondPut                    // body: u64 version, record; resp: empty
	msgQuery                      // body: encoded query; resp: encoded partial
	msgResp                       // response frame
	// msgEventBatch must stay above msgResp: the metrics latency arrays are
	// sized [msgResp] and indexed by the synchronous types below it.
	msgEventBatch // body: u32 count, count x 64 B events; fire-and-forget
	// Replication frames (WAL log shipping; DESIGN.md §12). Like
	// msgEventBatch they must stay above msgResp.
	msgReplSubscribe // body: u64 fromLSN; resp: u64 startLSN, u64 frontier; the conn then streams msgReplBatch frames
	msgReplBatch     // server→subscriber push: u64 firstLSN, u64 frontier, i64 origin unix-nanos, u32 count, count x 64 B events
	msgReplProbe     // lag/heartbeat probe; resp: u64 frontier (the primary's next LSN)
	msgReplPromote   // seal a follower's replay at its watermark; resp: u64 sealed LSN
	// msgOverload is a server→client push: fire-and-forget ingest on this
	// connection was rejected by admission control. Body: u64 retry-after
	// nanos, u64 events rejected so far on this connection. The client
	// honors it by failing ingest locally (typed, synchronous) for a
	// jittered retry-after window, so its caller's spill/retry machinery
	// engages instead of more doomed frames being shipped.
	msgOverload
)

// maxFrame bounds a frame to keep a malformed peer from allocating
// unboundedly. Partials over huge group counts dominate; 64 MiB is ample.
const maxFrame = 64 << 20

// statusOK / statusErr lead every response body.
const (
	statusOK  = 0
	statusErr = 1
)

// Wire error codes (the byte after statusErr). codeGeneric carries only the
// message; the other codes map onto process-local sentinel errors on the
// client side so errors.Is works across the wire.
const (
	codeGeneric         uint8 = 0
	codeVersionConflict uint8 = 1
	codeStopped         uint8 = 2
	codeOverloaded      uint8 = 3 // body carries u64 retry-after nanos before the message
	codeDeadline        uint8 = 4
)

// RemoteError is an application-level error reported by the server. Its
// presence means the node is alive and responded — as opposed to transport
// errors (timeouts, resets), which the client may retry.
type RemoteError struct {
	// Code is the wire error code.
	Code uint8
	// Msg is the server-side error text.
	Msg string
	// RetryAfter is the server's backoff hint (codeOverloaded only).
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return "netproto: remote: " + e.Msg }

// Is maps well-known codes back onto their sentinel errors.
func (e *RemoteError) Is(target error) bool {
	switch e.Code {
	case codeVersionConflict:
		return target == core.ErrVersionConflict
	case codeStopped:
		return target == core.ErrStopped
	case codeOverloaded:
		return target == core.ErrOverloaded
	case codeDeadline:
		return target == core.ErrDeadline
	}
	return false
}

// As lets errors.As extract a *core.OverloadedError from a remote overload
// rejection, so core.RetryAfterHint works identically for local and remote
// storage handles.
func (e *RemoteError) As(target any) bool {
	oe, ok := target.(**core.OverloadedError)
	if !ok || e.Code != codeOverloaded {
		return false
	}
	*oe = &core.OverloadedError{RetryAfter: e.RetryAfter, Reason: "remote"}
	return true
}

// errCode classifies a server-side error for the wire.
func errCode(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrVersionConflict):
		return codeVersionConflict
	case errors.Is(err, core.ErrStopped):
		return codeStopped
	case errors.Is(err, core.ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, core.ErrDeadline):
		return codeDeadline
	}
	return codeGeneric
}

type frame struct {
	typ   uint8
	reqID uint64
	body  []byte
}

// writeFrame sends one frame; the caller must serialize writes.
func writeFrame(w io.Writer, f frame) error {
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(9+len(f.body)))
	hdr[4] = f.typ
	binary.LittleEndian.PutUint64(hdr[5:], f.reqID)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.body) > 0 {
		if _, err := w.Write(f.body); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame.
func readFrame(r io.Reader) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < 9 || n > maxFrame {
		return frame{}, fmt.Errorf("netproto: invalid frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, err
	}
	return frame{
		typ:   buf[0],
		reqID: binary.LittleEndian.Uint64(buf[1:9]),
		body:  buf[9:],
	}, nil
}

// encodeEventBatch packs events into a msgEventBatch body: u32 count, then
// count fixed-size wire events back to back.
func encodeEventBatch(evs []event.Event) []byte {
	body := make([]byte, 4+len(evs)*event.WireSize)
	binary.LittleEndian.PutUint32(body, uint32(len(evs)))
	for i := range evs {
		evs[i].Encode(body[4+i*event.WireSize:])
	}
	return body
}

// decodeEventBatch unpacks a msgEventBatch body into a fresh slice.
func decodeEventBatch(body []byte) ([]event.Event, error) {
	if len(body) < 4 {
		return nil, errors.New("netproto: short event batch frame")
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n < 1 || len(body) != 4+n*event.WireSize {
		return nil, fmt.Errorf("netproto: event batch count %d does not match body length %d", n, len(body))
	}
	evs := make([]event.Event, n)
	for i := range evs {
		if err := evs[i].Decode(body[4+i*event.WireSize:]); err != nil {
			return nil, err
		}
	}
	return evs, nil
}

// replBatchHdr is the fixed prefix of a msgReplBatch body: firstLSN,
// frontier, origin nanos, event count.
const replBatchHdr = 8 + 8 + 8 + 4

// encodeReplBatch packs one shipped log chunk into a msgReplBatch body.
func encodeReplBatch(b repl.Batch) []byte {
	body := make([]byte, replBatchHdr+len(b.Events)*event.WireSize)
	binary.LittleEndian.PutUint64(body[0:], b.FirstLSN)
	binary.LittleEndian.PutUint64(body[8:], b.Frontier)
	binary.LittleEndian.PutUint64(body[16:], uint64(b.Origin.UnixNano()))
	binary.LittleEndian.PutUint32(body[24:], uint32(len(b.Events)))
	for i := range b.Events {
		b.Events[i].Encode(body[replBatchHdr+i*event.WireSize:])
	}
	return body
}

// decodeReplBatch unpacks a msgReplBatch body.
func decodeReplBatch(body []byte) (repl.Batch, error) {
	if len(body) < replBatchHdr {
		return repl.Batch{}, errors.New("netproto: short repl batch frame")
	}
	n := int(binary.LittleEndian.Uint32(body[24:]))
	if n < 0 || len(body) != replBatchHdr+n*event.WireSize {
		return repl.Batch{}, fmt.Errorf("netproto: repl batch count %d does not match body length %d", n, len(body))
	}
	b := repl.Batch{
		FirstLSN: binary.LittleEndian.Uint64(body[0:]),
		Frontier: binary.LittleEndian.Uint64(body[8:]),
		Origin:   time.Unix(0, int64(binary.LittleEndian.Uint64(body[16:]))),
	}
	if n > 0 {
		b.Events = make([]event.Event, n)
		for i := range b.Events {
			if err := b.Events[i].Decode(body[replBatchHdr+i*event.WireSize:]); err != nil {
				return repl.Batch{}, err
			}
		}
	}
	return b, nil
}

// okBody prefixes a payload with the ok status.
func okBody(payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = statusOK
	copy(out[1:], payload)
	return out
}

// errBody encodes an error response: status byte, error code, message.
// codeOverloaded carries the retry-after hint (u64 nanos) before the
// message so the typed rejection survives the wire intact.
func errBody(err error) []byte {
	msg := err.Error()
	code := errCode(err)
	if code == codeOverloaded {
		retry, _ := core.RetryAfterHint(err)
		out := make([]byte, 10+len(msg))
		out[0] = statusErr
		out[1] = code
		binary.LittleEndian.PutUint64(out[2:], uint64(retry))
		copy(out[10:], msg)
		return out
	}
	out := make([]byte, 2+len(msg))
	out[0] = statusErr
	out[1] = code
	copy(out[2:], msg)
	return out
}

// splitResp separates a response body into payload or a typed RemoteError.
func splitResp(body []byte) ([]byte, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("netproto: empty response body")
	}
	if body[0] == statusErr {
		if len(body) < 2 {
			return nil, &RemoteError{Code: codeGeneric, Msg: "truncated error frame"}
		}
		if body[1] == codeOverloaded && len(body) >= 10 {
			return nil, &RemoteError{
				Code:       codeOverloaded,
				RetryAfter: time.Duration(binary.LittleEndian.Uint64(body[2:])),
				Msg:        string(body[10:]),
			}
		}
		return nil, &RemoteError{Code: body[1], Msg: string(body[2:])}
	}
	return body[1:], nil
}
