package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

func sumProcessed(nodes []*core.StorageNode) uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.Stats().EventsProcessed
	}
	return total
}

func mkEvents(from, n int) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{Caller: uint64(from+i) + 1, Timestamp: int64(from + i + 1), Duration: 5, Cost: 1}
	}
	return evs
}

// routeBatch routes a copy of evs and reports how many leading events the
// cluster took ownership of (delivered or spilled), as core.ProcessBatch
// does for a storage handle.
func routeBatch(c *Cluster, evs []event.Event) (int, error) {
	err := c.ProcessEventBatch(append([]event.Event(nil), evs...))
	var pe *core.PartialBatchError
	switch {
	case err == nil:
		return len(evs), nil
	case errors.As(err, &pe):
		return pe.Applied, err
	}
	return 0, err
}

// wantDelivered checks the stub saw exactly want, in order, once each.
func wantDelivered(t *testing.T, fs *flakyStorage, want []event.Event) {
	t.Helper()
	fs.mu.Lock()
	got := append([]event.Event(nil), fs.delivered...)
	fs.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: got %+v, want %+v (order or duplication broken)", i, got[i], want[i])
		}
	}
}

// TestProcessEventBatchRoutesAll routes single events and pre-formed batches
// across three nodes and checks nothing is lost or duplicated.
func TestProcessEventBatchRoutesAll(t *testing.T) {
	c, nodes := newLocal(t, 3)
	const n = 500
	for i := 0; i < n; i++ {
		ev := event.Event{Caller: uint64(i%97) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := c.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]event.Event, 100)
	for i := range batch {
		batch[i] = event.Event{Caller: uint64(i%97) + 1, Timestamp: int64(1000 + i), Duration: 5, Cost: 1}
	}
	if err := c.ProcessEventBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := sumProcessed(nodes); got != n+100 {
		t.Fatalf("nodes processed %d events, want %d", got, n+100)
	}
}

// haltingStorage delivers events until its budget runs out, then fails —
// the shape of a node dying mid-batch. It exposes the delivered prefix so
// tests can check exactly-once, in-order redelivery.
type haltingStorage struct {
	flakyStorage
	budget int // remaining deliveries before failures start; -1 = unlimited
}

func (h *haltingStorage) ProcessEventAsync(ev event.Event) error {
	if h.budget == 0 {
		return errInjected
	}
	if h.budget > 0 {
		h.budget--
	}
	return h.flakyStorage.ProcessEventAsync(ev)
}

// TestClusterBatchSpillAndReplay kills delivery mid-batch: the batch's
// delivered prefix must stay delivered, the undelivered suffix must spill
// and replay after recovery, and the node must see the original stream
// order with no duplicates.
func TestClusterBatchSpillAndReplay(t *testing.T) {
	// Budget 2: a 4-event batch delivers 2, then fails. haltingStorage has no
	// ProcessEventBatch, so delivery takes core.ProcessBatch's per-event
	// fallback — the path that reports partial progress.
	// RetryInterval is huge so the background drainer never races the
	// assertions below; replay goes through FlushEvents' synchronous path.
	hs := &haltingStorage{budget: 2}
	c, err := NewWithHealth([]core.Storage{hs}, HealthConfig{
		FailureThreshold: 3, ProbeInterval: 5 * time.Millisecond,
		RetryQueue: 100, RetryInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	evs := mkEvents(0, 4)
	if _, err := routeBatch(c, evs); err != nil {
		t.Fatalf("routed batch surfaced %v instead of spilling its suffix", err)
	}
	if got := hs.deliveredCount(); got != 2 {
		t.Fatalf("delivered %d events before the fault, want 2", got)
	}
	if h := c.Health(0); h.QueuedEvents != 2 {
		t.Fatalf("spill queue holds %d events, want 2: %+v", h.QueuedEvents, h)
	}

	// Recover the node; FlushEvents replays the spilled suffix synchronously.
	hs.budget = -1
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	wantDelivered(t, &hs.flakyStorage, evs)
	if h := c.Health(0); h.QueuedEvents != 0 || h.Replayed != 2 || h.Rejected != 0 {
		t.Fatalf("health after replay = %+v, want queued 0, replayed 2, rejected 0", h)
	}
}

// TestBatchDisabledHealthReturnsSuffix checks that with health tracking
// disabled (no spill queue) a batch that dies midway is not dropped: the
// error names the delivered prefix, the caller keeps the suffix, and
// resubmitting it after recovery completes the stream in order, without
// duplicates.
func TestBatchDisabledHealthReturnsSuffix(t *testing.T) {
	hs := &haltingStorage{budget: 2}
	c, err := NewWithHealth([]core.Storage{hs}, HealthConfig{FailureThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	evs := mkEvents(0, 6)
	delivered, err := routeBatch(c, evs)
	if err == nil || delivered != 2 {
		t.Fatalf("batch against a dying node: delivered %d, err %v; want 2 and an error", delivered, err)
	}
	hs.budget = -1
	if _, err := routeBatch(c, evs[delivered:]); err != nil {
		t.Fatalf("resubmitting the suffix after recovery: %v", err)
	}
	wantDelivered(t, &hs.flakyStorage, evs)
}

// TestClusterBatchBreakerOpenSpills checks a batch routed against an open
// breaker does not even touch the node: the whole batch spills and replays
// once the node recovers.
func TestClusterBatchBreakerOpenSpills(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 2, ProbeInterval: time.Minute,
		RetryQueue: 100, RetryInterval: time.Minute,
	})
	fs.down.Store(true)

	// Two batches fail and open the breaker; the third spills without a
	// delivery attempt, so delivered stays 0 for the whole outage.
	evs := mkEvents(0, 6)
	for i := 0; i < len(evs); i += 2 {
		if _, err := routeBatch(c, evs[i:i+2]); err != nil {
			t.Fatal(err)
		}
	}
	h := c.Health(0)
	if h.State != BreakerOpen || h.QueuedEvents != 6 || fs.deliveredCount() != 0 {
		t.Fatalf("health after failed batches = %+v (delivered %d), want open breaker, 6 queued, 0 delivered",
			h, fs.deliveredCount())
	}

	fs.down.Store(false)
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	wantDelivered(t, fs, evs)
	if h = c.Health(0); h.QueuedEvents != 0 || h.Replayed != 6 {
		t.Fatalf("health after replay = %+v, want queued 0, replayed 6", h)
	}
}

// TestBatchSpillOverflowDoesNotDropEvents is the regression test for the
// silent-loss bug in the batch spill path: when a routed batch's undelivered
// suffix overflows the bounded retry queue, the part that does not fit must
// be refused back to the caller — typed, with the accepted prefix length —
// never discarded, and must reach the node once the caller resubmits it.
func TestBatchSpillOverflowDoesNotDropEvents(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 1, ProbeInterval: time.Hour,
		RetryQueue: 2, RetryInterval: time.Hour,
		SpillRetryAfter: time.Millisecond,
	})
	fs.down.Store(true)

	evs := mkEvents(0, 10)
	var retained []event.Event // what the cluster refused: still the caller's
	for i := 0; i < len(evs); i += 5 {
		batch := evs[i : i+5]
		accepted, err := routeBatch(c, batch)
		if err != nil {
			if !errors.Is(err, core.ErrOverloaded) {
				t.Fatalf("overflow surfaced untyped: %v", err)
			}
			if retry, ok := core.RetryAfterHint(err); !ok || retry <= 0 {
				t.Fatalf("overflow rejection carries no retry-after hint: %v", err)
			}
		}
		retained = append(retained, batch[accepted:]...)
	}
	h := c.Health(0)
	// Every offered event is still owned somewhere: parked in the spill
	// queue or refused back to the caller.
	if h.QueuedEvents != 2 || len(retained) != 8 || int(h.Rejected) != len(retained) {
		t.Fatalf("accounted for %d queued + %d retained of %d events (health %+v)",
			h.QueuedEvents, len(retained), len(evs), h)
	}

	// Recovery: the flush lands the queue, the caller resubmits the rest.
	fs.down.Store(false)
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := c.ProcessEventBatch(retained); err != nil {
		t.Fatalf("resubmitting refused events after recovery: %v", err)
	}
	wantDelivered(t, fs, evs)
}

// gatedStorage accepts whole batches; its first batch delivery blocks until
// the gate opens — a replay batch caught mid-flight (a redial backoff, a
// slow link) between leaving the spill queue and reaching the node.
type gatedStorage struct {
	flakyStorage
	first   atomic.Bool   // set by the delivery that takes the gate
	entered chan struct{} // closed when the first batch delivery starts
	gate    chan struct{} // the first batch delivery returns once this closes
}

func (g *gatedStorage) ProcessEventBatch(evs []event.Event) error {
	if g.fail() {
		return errInjected
	}
	if g.first.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.gate
	}
	g.mu.Lock()
	g.delivered = append(g.delivered, evs...)
	g.mu.Unlock()
	return nil
}

// TestFlushWaitsForInFlightDrain is the regression test for the event loss
// TestChaosFlakyNodeFullWorkload showed about once in 15 runs ("processed
// 1236, sent 1300"): the background drainer popped a batch off the spill
// queue and was still delivering it when FlushEvents found the queue empty
// (or replayed the later batches past it) and reported every event landed.
// A flush must wait for the in-flight batch, and replay must stay in stream
// order.
func TestFlushWaitsForInFlightDrain(t *testing.T) {
	gs := &gatedStorage{entered: make(chan struct{}), gate: make(chan struct{})}
	c, err := NewWithHealth([]core.Storage{gs}, HealthConfig{
		FailureThreshold: 1, ProbeInterval: time.Millisecond,
		RetryQueue: 1000, RetryInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	openGate := sync.OnceFunc(func() { close(gs.gate) })
	t.Cleanup(openGate) // before Close, which joins the gated drainer

	gs.down.Store(true)
	evs := mkEvents(0, 3*drainBatch)
	for _, ev := range evs {
		if err := c.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	gs.down.Store(false)
	select {
	case <-gs.entered: // the drainer holds the first batch, mid-delivery
	case <-time.After(5 * time.Second):
		t.Fatal("drainer never attempted a replay")
	}

	flushed := make(chan error, 1)
	go func() { flushed <- c.FlushEvents() }()
	select {
	case err := <-flushed:
		t.Fatalf("FlushEvents returned (%v) while a replay batch was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	openGate()
	if err := <-flushed; err != nil {
		t.Fatalf("flush after the in-flight batch landed: %v", err)
	}
	wantDelivered(t, &gs.flakyStorage, evs)
}
