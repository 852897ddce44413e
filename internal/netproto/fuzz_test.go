package netproto

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/repl"
)

// The fuzz targets below cover the decoders a socket reaches before any
// application logic: the frame reader (every connection), the event batch
// body (the only fire-and-forget ingest entry point) and the replication
// batch body (what a follower reads off its primary). Each must reject
// hostile bytes with an error — never a panic, never an allocation sized by
// an unchecked count — and whatever it accepts must re-encode to a body that
// decodes to the same thing.

func fuzzEvents(n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Caller: uint64(i) + 1, Callee: uint64(i) + 2, Timestamp: int64(i) * 7,
			Duration: int64(i % 600), Cost: float64(i) / 4, LongDistance: i%3 == 0,
		}
	}
	return evs
}

func frameBytes(f frame) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func overloadPushBody(retry time.Duration, rejected uint64) []byte {
	var body [16]byte
	binary.LittleEndian.PutUint64(body[0:], uint64(retry))
	binary.LittleEndian.PutUint64(body[8:], rejected)
	return body[:]
}

func heartbeatBatch() repl.Batch {
	return repl.Batch{FirstLSN: 42, Frontier: 42, Origin: time.Unix(0, 1_700_000_000_000_000_000)}
}

func FuzzReadFrame(f *testing.F) {
	one := frameBytes(frame{typ: msgEventBatch, body: encodeEventBatch(fuzzEvents(1))})
	f.Add(one)
	f.Add(frameBytes(frame{typ: msgEventBatch, body: encodeEventBatch(fuzzEvents(256))}))
	f.Add(frameBytes(frame{typ: msgReplBatch, body: encodeReplBatch(heartbeatBatch())}))
	f.Add(frameBytes(frame{typ: msgOverload, body: overloadPushBody(2*time.Millisecond, 17)}))
	f.Add(frameBytes(frame{typ: msgFlush, reqID: 9}))
	f.Add(one[:7])                        // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}) // length far past maxFrame
	f.Add([]byte{0x08, 0x00, 0x00, 0x00}) // length below the fixed header

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := readFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if got := frameBytes(fr); !bytes.Equal(got, consumed) {
			t.Fatalf("frame re-encodes to %d bytes != the %d consumed", len(got), len(consumed))
		}
		// Whatever the frame claims to carry, its body decoder must hold.
		switch fr.typ {
		case msgEventBatch:
			_, _ = decodeEventBatch(fr.body)
		case msgReplBatch:
			_, _ = decodeReplBatch(fr.body)
		case msgResp:
			_, _ = splitResp(fr.body)
		case msgOverload:
			new(Client).noteOverloadPush(fr.body)
		}
	})
}

func FuzzDecodeEventBatch(f *testing.F) {
	f.Add(encodeEventBatch(fuzzEvents(1)))
	big := encodeEventBatch(fuzzEvents(256))
	f.Add(big)
	f.Add(big[:len(big)-1])      // truncated last event
	f.Add(encodeEventBatch(nil)) // zero count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		evs, err := decodeEventBatch(body)
		if err != nil {
			return
		}
		if len(evs) == 0 || len(body) != 4+len(evs)*event.WireSize {
			t.Fatalf("accepted %d events from a %d-byte body", len(evs), len(body))
		}
		enc := encodeEventBatch(evs)
		again, err := decodeEventBatch(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if enc2 := encodeEventBatch(again); !bytes.Equal(enc, enc2) {
			t.Fatal("event batch roundtrip unstable")
		}
	})
}

func FuzzDecodeReplBatch(f *testing.F) {
	f.Add(encodeReplBatch(heartbeatBatch()))
	full := heartbeatBatch()
	full.Frontier += 256
	full.Events = fuzzEvents(256)
	f.Add(encodeReplBatch(full))
	one := encodeReplBatch(repl.Batch{FirstLSN: 1, Frontier: 2, Events: fuzzEvents(1)})
	f.Add(one)
	f.Add(one[:replBatchHdr-1]) // truncated header
	f.Add(one[:len(one)-1])     // truncated event

	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := decodeReplBatch(body)
		if err != nil {
			return
		}
		if len(body) != replBatchHdr+len(b.Events)*event.WireSize {
			t.Fatalf("accepted %d events from a %d-byte body", len(b.Events), len(body))
		}
		enc := encodeReplBatch(b)
		again, err := decodeReplBatch(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.FirstLSN != b.FirstLSN || again.Frontier != b.Frontier || !again.Origin.Equal(b.Origin) {
			t.Fatalf("repl batch header changed: %+v vs %+v", again, b)
		}
		if enc2 := encodeReplBatch(again); !bytes.Equal(enc, enc2) {
			t.Fatal("repl batch roundtrip unstable")
		}
	})
}
