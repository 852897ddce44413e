package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/event"
)

// TestFlushCountsWALFailedBatch checks a fire-and-forget batch the node
// fails to log is not a silent drop: with the archive's write failing under
// a coalesced batch, the client's next FlushEvents returns a typed remote
// error that counts every event of the batch, and the node applied none.
func TestFlushCountsWALFailedBatch(t *testing.T) {
	sch := netSchema(t)
	arch, err := archive.Open(t.TempDir(), archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.Config{Schema: sch, Partitions: 2, BucketSize: 32, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", node, sch)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialConfig(srv.Addr(), sch, ClientConfig{EventBatch: 64, EventLinger: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		node.Stop()
		arch.Close()
	})

	crashpoint.SetHook(func(string) error { return errors.New("injected write error") })
	if err := crashpoint.Arm(crashpoint.ArchiveAppendBeforeWrite); err != nil {
		t.Fatal(err)
	}
	defer crashpoint.Disarm()

	const batch = 10
	for i := 0; i < batch; i++ {
		ev := event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1), Duration: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatalf("buffered send %d: %v", i, err)
		}
	}
	err = cli.FlushEvents()
	crashpoint.Disarm()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("flush after a WAL-failed batch = %v, want a *RemoteError", err)
	}
	if want := fmt.Sprintf("%d events rejected", batch); !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), "archive: failed") {
		t.Fatalf("flush reported %q, want it to count %q and name the WAL failure", err, want)
	}
	if got := node.Stats().EventsProcessed; got != 0 {
		t.Fatalf("node applied %d events of a batch its WAL failed", got)
	}
}

// TestFlushCountsMalformedBatch checks a msgEventBatch whose body does not
// decode is counted, not dropped: the connection's next msgFlush fails and
// names the body's whole events as rejected.
func TestFlushCountsMalformedBatch(t *testing.T) {
	srv, node, _ := startServer(t)
	conn := rawDial(t, srv.Addr())
	evs := make([]event.Event, 3)
	body := encodeEventBatch(evs)
	body[0]++ // the count now claims one event more than the body carries
	if err := writeFrame(conn, frame{typ: msgEventBatch, body: body}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frame{typ: msgFlush, reqID: 7}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != msgResp || f.reqID != 7 {
		t.Fatalf("reply frame type %d reqID %d, want the flush response", f.typ, f.reqID)
	}
	_, err = splitResp(f.body)
	if err == nil || !strings.Contains(err.Error(), "3 events rejected") {
		t.Fatalf("flush after a malformed batch = %v, want it to count 3 rejected events", err)
	}
	if got := node.Stats().EventsProcessed; got != 0 {
		t.Fatalf("node applied %d events of a malformed batch", got)
	}
}
