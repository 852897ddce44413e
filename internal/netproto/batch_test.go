package netproto

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/rules"
	"repro/internal/schema"
)

// startPairCfg boots a node + server + client with explicit configs, for
// exercising the batched ingest paths.
func startPairCfg(t *testing.T, scfg ServerConfig, ccfg ClientConfig) (*Client, *core.StorageNode, *schema.Schema) {
	t.Helper()
	sch := netSchema(t)
	node, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 2, BucketSize: 32,
		IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeWithConfig("127.0.0.1:0", node, sch, scfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialConfig(srv.Addr(), sch, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		node.Stop()
	})
	return cli, node, sch
}

func waitProcessed(t *testing.T, node *core.StorageNode, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := node.Stats().EventsProcessed; got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server processed %d events, want %d", node.Stats().EventsProcessed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEventBatchCodecRoundtrip(t *testing.T) {
	evs := fuzzEvents(17)
	got, err := decodeEventBatch(encodeEventBatch(evs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}

	// Malformed bodies must be rejected, not mis-sliced.
	if _, err := decodeEventBatch(nil); err == nil {
		t.Fatal("decoded empty body")
	}
	if _, err := decodeEventBatch([]byte{0, 0}); err == nil {
		t.Fatal("decoded short body")
	}
	body := encodeEventBatch(evs[:2])
	if _, err := decodeEventBatch(body[:len(body)-1]); err == nil {
		t.Fatal("decoded truncated batch")
	}
	body[0] = 3 // count says 3, body carries 2
	if _, err := decodeEventBatch(body); err == nil {
		t.Fatal("decoded count/length mismatch")
	}
	zero := encodeEventBatch(nil)
	if _, err := decodeEventBatch(zero); err == nil {
		t.Fatal("decoded zero-count batch")
	}
}

// TestClientCoalescingOverTCP drives the opt-in client buffer end to end:
// events coalesce into msgEventBatch frames, FlushEvents force-drains, and
// the server applies every event exactly once.
func TestClientCoalescingOverTCP(t *testing.T) {
	cli, node, _ := startPairCfg(t, ServerConfig{},
		ClientConfig{EventBatch: 16, EventLinger: -1})
	for i := 0; i < 200; i++ {
		ev := event.Event{Caller: uint64(i%20) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	// A pre-batched caller path ships one frame directly (draining the
	// coalescing buffer first to keep order).
	batch := make([]event.Event, 50)
	for i := range batch {
		batch[i] = event.Event{Caller: uint64(i%20) + 1, Timestamp: int64(1000 + i), Duration: 5, Cost: 1}
	}
	if err := cli.ProcessEventBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := node.Stats().EventsProcessed; got != 250 {
		t.Fatalf("server processed %d events, want 250", got)
	}
}

// TestWireBatchSizeEquivalence drives one seeded stream through an
// EventBatch: 0 client (every event a batch frame of one) and an
// EventBatch: 256 client (coalesced frames) and checks the server cannot
// tell them apart: identical records (version stamp aside), rule firings and
// archive contents LSN for LSN. It is the wire-level twin of core's
// TestBatchedIngestMatchesPerEvent.
func TestWireBatchSizeEquivalence(t *testing.T) {
	const dayMs = 24 * 3600 * 1000
	const nEvents, nEntities = 3000, 37
	sch, err := schema.NewBuilder().
		AddGroup(schema.GroupSpec{Name: "calls_today", Metric: schema.MetricCount,
			Window: schema.Day(), Aggs: []schema.AggKind{schema.AggCount}}).
		AddGroup(schema.GroupSpec{Name: "dur_today", Metric: schema.MetricDuration,
			Window: schema.Day(), Aggs: []schema.AggKind{schema.AggSum}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rule := []rules.Rule{{
		ID: 1, Action: "alert",
		Conjuncts: []rules.Conjunct{{{Kind: rules.LHSAttr, Attr: sch.MustAttrIndex("calls_today_count"), Op: rules.Ge, Value: 3}}},
	}}
	// Timestamps cross several day windows, so per-caller apply order shows
	// in the records, not just in the counts.
	rng := rand.New(rand.NewSource(14))
	evs := make([]event.Event, nEvents)
	for i := range evs {
		evs[i] = event.Event{
			Caller: uint64(rng.Intn(nEntities)) + 1, Callee: uint64(rng.Intn(nEntities)) + 1,
			Timestamp: 100*dayMs + int64(i)*(dayMs/400),
			Duration:  int64(rng.Intn(600)), Cost: float64(rng.Intn(100)) / 10,
			LongDistance: rng.Intn(4) == 0,
		}
	}

	type outcome struct {
		firings uint64
		records [][]byte
		log     []event.Event
	}
	run := func(eventBatch int) outcome {
		arch, err := archive.Open(t.TempDir(), archive.Options{SegmentEvents: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer arch.Close()
		node, err := core.NewNode(core.Config{
			Schema: sch, Partitions: 3, ESPThreads: 2, BucketSize: 32,
			Rules: rule, Archive: arch,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
		srv, err := Serve("127.0.0.1:0", node, sch)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := DialConfig(srv.Addr(), sch, ClientConfig{EventBatch: eventBatch, EventLinger: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for i := range evs {
			if err := cli.ProcessEventAsync(evs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.FlushEvents(); err != nil {
			t.Fatal(err)
		}
		out := outcome{firings: node.Stats().RuleFirings}
		for e := uint64(1); e <= nEntities; e++ {
			rec, _, ok, err := cli.Get(e)
			if err != nil {
				t.Fatal(err)
			}
			var enc []byte
			if ok {
				rec[sch.VersionSlot] = 0
				enc = make([]byte, schema.EncodedSize(len(rec)))
				schema.EncodeRecord(rec, enc)
			}
			out.records = append(out.records, enc)
		}
		if err := arch.Replay(0, func(lsn uint64, ev event.Event) error {
			if lsn != uint64(len(out.log)) {
				t.Fatalf("EventBatch %d: replay lsn %d after %d events", eventBatch, lsn, len(out.log))
			}
			out.log = append(out.log, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	single, batched := run(0), run(256)
	if single.firings == 0 || single.firings != batched.firings {
		t.Fatalf("firings: frames of one %d, coalesced %d (want equal, non-zero)", single.firings, batched.firings)
	}
	for i := range single.records {
		if !bytes.Equal(single.records[i], batched.records[i]) {
			t.Fatalf("entity %d: record differs between frames of one and coalesced frames", i+1)
		}
	}
	if len(single.log) != nEvents || len(batched.log) != nEvents {
		t.Fatalf("archived %d / %d events, want %d each", len(single.log), len(batched.log), nEvents)
	}
	for lsn := range single.log {
		if single.log[lsn] != batched.log[lsn] || single.log[lsn] != evs[lsn] {
			t.Fatalf("lsn %d: frames of one logged %+v, coalesced %+v, sent %+v",
				lsn, single.log[lsn], batched.log[lsn], evs[lsn])
		}
	}
}

// TestWireTypeNumbersPinned pins the frame types other programs index by
// number (e2ebench counts frames per type): retiring msgEvent (1) must not
// shift anything.
func TestWireTypeNumbersPinned(t *testing.T) {
	if msgEventSync != 2 || msgResp != 8 || msgEventBatch != 9 {
		t.Fatalf("wire types moved: msgEventSync=%d msgResp=%d msgEventBatch=%d, want 2, 8, 9",
			msgEventSync, msgResp, msgEventBatch)
	}
}

// TestClientLingerFlush checks a size-incomplete batch does not wait for
// more traffic: the linger timer ships it.
func TestClientLingerFlush(t *testing.T) {
	cli, node, _ := startPairCfg(t, ServerConfig{},
		ClientConfig{EventBatch: 64, EventLinger: 5 * time.Millisecond})
	for i := 0; i < 10; i++ {
		ev := event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: only the linger timer can deliver these.
	waitProcessed(t, node, 10)
}

// TestSyncCallFlushesBuffered checks read-your-writes ordering: a
// synchronous call drains the coalescing buffer first, so the server sees
// the buffered events before the call — without FlushEvents and without a
// linger timer.
func TestSyncCallFlushesBuffered(t *testing.T) {
	cli, node, _ := startPairCfg(t, ServerConfig{},
		ClientConfig{EventBatch: 64, EventLinger: -1})
	for i := 0; i < 5; i++ {
		ev := event.Event{Caller: 7, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := cli.Get(7); err != nil {
		t.Fatal(err)
	}
	// The Get was the only possible flush trigger (buffer not full, timer
	// disabled); the events must now be on the server.
	waitProcessed(t, node, 5)
}

// sheddingNode is a storage node whose admission control refuses every
// fire-and-forget batch while shed is set.
type sheddingNode struct {
	*core.StorageNode
	shed atomic.Bool
}

func (n *sheddingNode) ProcessEventBatch(evs []event.Event) error {
	if n.shed.Load() {
		return &core.OverloadedError{RetryAfter: 20 * time.Millisecond, Reason: "test"}
	}
	return n.StorageNode.ProcessEventBatch(evs)
}

// TestOverloadPushbackForFramesOfOne checks the overload contract holds for
// a client that forms no batches: frames of one refused by admission control
// come back as an msgOverload push (ingest then fails locally, typed), the
// next flush reports exactly how many events were refused, and nothing is
// refused twice.
func TestOverloadPushbackForFramesOfOne(t *testing.T) {
	sch := netSchema(t)
	inner, err := core.NewNode(core.Config{Schema: sch, Partitions: 1, BucketSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	node := &sheddingNode{StorageNode: inner}
	srv, err := Serve("127.0.0.1:0", node, sch)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialConfig(srv.Addr(), sch, ClientConfig{EventBatch: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		inner.Stop()
	})

	node.shed.Store(true)
	shipped := 0 // frames written before the pushback reached the client
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := cli.ProcessEventAsync(event.Event{Caller: 1, Timestamp: int64(shipped + 1), Duration: 1})
		if err == nil {
			shipped++
			if time.Now().After(deadline) {
				t.Fatalf("no overload pushback after %d refused frames", shipped)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if !errors.Is(err, core.ErrOverloaded) {
			t.Fatalf("ingest during pushback = %v, want a typed overload error", err)
		}
		if retry, ok := core.RetryAfterHint(err); !ok || retry <= 0 {
			t.Fatalf("local rejection carries no retry-after hint: %v", err)
		}
		break
	}

	node.shed.Store(false)
	err = cli.FlushEvents()
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("flush after refused frames = %v, want the typed overload error", err)
	}
	if want := fmt.Sprintf("%d events rejected", shipped); !strings.Contains(err.Error(), want) {
		t.Fatalf("flush reported %q, want it to count %q", err, want)
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatalf("second flush re-reported the rejection: %v", err)
	}
	if got := inner.Stats().EventsProcessed; got != 0 {
		t.Fatalf("node applied %d refused events", got)
	}
}

// TestLingerRetriesAfterFailedFlush checks a dead timer cannot strand a
// quiet stream: when a linger flush fails (server unreachable) the timer
// re-arms, so the buffered events are delivered after the server heals with
// no further sends, flushes, or syncs from the application.
func TestLingerRetriesAfterFailedFlush(t *testing.T) {
	plan := NewFaultPlan()
	cli, node, _ := startPairCfg(t, ServerConfig{}, ClientConfig{
		EventBatch: 64, EventLinger: 2 * time.Millisecond,
		Dialer:      plan.Dialer(),
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})

	// Take the server away: the live conn is reset and redials are refused.
	plan.SetFailDial(true)
	plan.ResetAll()
	for i := 0; i < 3; i++ {
		ev := event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatalf("event %d: buffered send surfaced %v", i, err)
		}
	}
	// Several linger deadlines pass against the dead server; every flush
	// attempt fails and must leave the retry timer armed.
	time.Sleep(20 * time.Millisecond)
	if got := node.Stats().EventsProcessed; got != 0 {
		t.Fatalf("server processed %d events while unreachable", got)
	}

	// Heal and touch nothing: only a re-armed linger timer can deliver.
	plan.Heal()
	waitProcessed(t, node, 3)
}

// TestCoalescingZeroLossUnderFaults checks the batched client path keeps
// the per-event path's delivery contract under connection loss: a failed
// flush keeps the batch buffered, the failure surfaces on the next send
// (whose event stays owned by the caller, exactly like a failed per-event
// send), and after healing every accepted event is delivered once.
func TestCoalescingZeroLossUnderFaults(t *testing.T) {
	plan := NewFaultPlan()
	cli, node, _ := startPairCfg(t, ServerConfig{}, ClientConfig{
		EventBatch: 4, EventLinger: -1,
		Dialer:      plan.Dialer(),
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	})
	mk := func(i int) event.Event {
		return event.Event{Caller: uint64(i) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
	}

	// Healthy: one full batch flushes by size.
	for i := 0; i < 4; i++ {
		if err := cli.ProcessEventAsync(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}

	// Kill the server's reachability: live conn reset, redials refused.
	plan.SetFailDial(true)
	plan.ResetAll()

	// Three events buffer cleanly; the fourth triggers a size flush that
	// fails. The failure is NOT surfaced here — the batch (all 4 events) is
	// retained for redelivery.
	for i := 4; i < 8; i++ {
		if err := cli.ProcessEventAsync(mk(i)); err != nil {
			t.Fatalf("event %d: buffered send surfaced %v", i, err)
		}
	}
	// The next send surfaces the sticky failure and rejects its event, so
	// the caller (the cluster spill queue, in production) still owns it.
	rejected := mk(8)
	if err := cli.ProcessEventAsync(rejected); err == nil {
		t.Fatal("send after failed flush reported success")
	}
	// An explicit flush while the server is down also fails — the batch
	// stays buffered.
	if err := cli.FlushEvents(); err == nil {
		t.Fatal("FlushEvents succeeded against a dead server")
	}

	plan.Heal()
	if err := cli.FlushEvents(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	// Redeliver the one rejected event, exactly like the spill queue would.
	if err := cli.ProcessEventAsync(rejected); err != nil {
		t.Fatal(err)
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}

	// Zero loss, zero duplication: 4 + 4 buffered-through-outage + 1 resent.
	if got := node.Stats().EventsProcessed; got != 9 {
		t.Fatalf("server processed %d events, want 9", got)
	}
	if plan.Injected() == 0 {
		t.Fatal("fault plan injected nothing; test exercised the healthy path only")
	}
}
