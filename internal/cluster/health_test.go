package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/schema"
)

// flakyStorage is a core.Storage stub whose operations fail while `down`
// is set, for driving the circuit breaker deterministically.
type flakyStorage struct {
	down atomic.Bool

	mu        sync.Mutex
	delivered []event.Event
	condPuts  int
}

var errInjected = errors.New("flaky: injected failure")

func (f *flakyStorage) fail() bool { return f.down.Load() }

func (f *flakyStorage) ProcessEventAsync(ev event.Event) error {
	if f.fail() {
		return errInjected
	}
	f.mu.Lock()
	f.delivered = append(f.delivered, ev)
	f.mu.Unlock()
	return nil
}

func (f *flakyStorage) ProcessEvent(ev event.Event) (int, error) {
	if err := f.ProcessEventAsync(ev); err != nil {
		return 0, err
	}
	return 0, nil
}

func (f *flakyStorage) FlushEvents() error {
	if f.fail() {
		return errInjected
	}
	return nil
}

func (f *flakyStorage) Get(entityID uint64) (schema.Record, uint64, bool, error) {
	if f.fail() {
		return nil, 0, false, errInjected
	}
	return nil, 0, false, nil
}

func (f *flakyStorage) Put(rec schema.Record) error {
	if f.fail() {
		return errInjected
	}
	return nil
}

func (f *flakyStorage) ConditionalPut(rec schema.Record, expected uint64) error {
	if f.fail() {
		return errInjected
	}
	f.mu.Lock()
	f.condPuts++
	f.mu.Unlock()
	return core.ErrVersionConflict
}

func (f *flakyStorage) SubmitQueryAsync(q *query.Query) (<-chan core.QueryResponse, error) {
	if f.fail() {
		return nil, errInjected
	}
	ch := make(chan core.QueryResponse, 1)
	ch <- core.QueryResponse{Partial: query.NewPartial(q)}
	return ch, nil
}

func (f *flakyStorage) SubmitQuery(q *query.Query) (*query.Partial, error) {
	if f.fail() {
		return nil, errInjected
	}
	return query.NewPartial(q), nil
}

func (f *flakyStorage) deliveredCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.delivered)
}

func flakyCluster(t *testing.T, hcfg HealthConfig) (*Cluster, *flakyStorage) {
	t.Helper()
	fs := &flakyStorage{}
	c, err := NewWithHealth([]core.Storage{fs}, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, fs
}

func TestBreakerOpensSpillsAndReplays(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 3, ProbeInterval: 5 * time.Millisecond,
		RetryQueue: 1000, RetryInterval: time.Millisecond,
	})
	fs.down.Store(true)
	const events = 50
	for i := 0; i < events; i++ {
		ev := event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1)}
		if err := c.ProcessEventAsync(ev); err != nil {
			t.Fatalf("event %d: spill should absorb failures, got %v", i, err)
		}
	}
	h := c.Health(0)
	if h.State != BreakerOpen && h.State != BreakerHalfOpen {
		t.Fatalf("breaker = %v after %d failures, want open", h.State, events)
	}
	if h.QueuedEvents == 0 || h.Spilled == 0 {
		t.Fatalf("nothing spilled: %+v", h)
	}
	if got := fs.deliveredCount(); got != 0 {
		t.Fatalf("%d events delivered to a down node", got)
	}

	// Heal: the background drainer replays the queue via half-open probes.
	fs.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for fs.deliveredCount() < events {
		if time.Now().After(deadline) {
			t.Fatalf("drainer replayed only %d/%d events; health %+v",
				fs.deliveredCount(), events, c.Health(0))
		}
		time.Sleep(time.Millisecond)
	}
	h = c.Health(0)
	if h.State != BreakerClosed {
		t.Fatalf("breaker = %v after recovery, want closed", h.State)
	}
	if h.Replayed != events {
		t.Fatalf("replayed = %d, want %d", h.Replayed, events)
	}
}

func TestFailFastWhenSpillDisabled(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 2, ProbeInterval: time.Hour, RetryQueue: -1,
	})
	fs.down.Store(true)
	var sawNodeDown bool
	for i := 0; i < 10; i++ {
		err := c.ProcessEventAsync(event.Event{Caller: uint64(i + 1)})
		if err == nil {
			t.Fatalf("event %d accepted with spilling disabled on a down node", i)
		}
		if errors.Is(err, ErrNodeDown) {
			sawNodeDown = true
			var nde *NodeDownError
			if !errors.As(err, &nde) || nde.Node != 0 {
				t.Fatalf("bad NodeDownError: %v", err)
			}
		}
	}
	if !sawNodeDown {
		t.Fatal("breaker never tripped to ErrNodeDown")
	}
	// Sync ops fail fast too while open.
	if _, _, _, err := c.Get(1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get on open breaker = %v, want ErrNodeDown", err)
	}
	if err := c.Put(schemaRecord(t, 1)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Put on open breaker = %v, want ErrNodeDown", err)
	}
	if _, err := c.ProcessEvent(event.Event{Caller: 1}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("ProcessEvent on open breaker = %v, want ErrNodeDown", err)
	}
}

func TestQueueBoundRejectsTypedWhenFull(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 1, ProbeInterval: time.Hour, RetryQueue: 5,
		RetryInterval: time.Hour,
	})
	fs.down.Store(true)
	var refused int
	for i := 0; i < 20; i++ {
		if err := c.ProcessEventAsync(event.Event{Caller: uint64(i + 1)}); err != nil {
			if !errors.Is(err, core.ErrOverloaded) {
				t.Fatalf("unexpected error %v", err)
			}
			if retry, ok := core.RetryAfterHint(err); !ok || retry <= 0 {
				t.Fatalf("overflow rejection carries no retry-after hint: %v", err)
			}
			refused++
		}
	}
	h := c.Health(0)
	if h.QueuedEvents != 5 {
		t.Fatalf("queue = %d, want bound 5", h.QueuedEvents)
	}
	if refused == 0 || h.Rejected == 0 {
		t.Fatalf("full queue never refused events: refused=%d health=%+v", refused, h)
	}
	// Nothing is silently lost: every event is either queued for replay or
	// refused back to its caller.
	if int(h.Spilled)+refused != 20 || int(h.Rejected) != refused {
		t.Fatalf("spilled %d + refused %d != 20 offered (health %+v)", h.Spilled, refused, h)
	}
}

func TestVersionConflictIsNotANodeFailure(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{FailureThreshold: 2, ProbeInterval: time.Hour})
	rec := schemaRecord(t, 1)
	for i := 0; i < 20; i++ {
		if err := c.ConditionalPut(rec, 99); !errors.Is(err, core.ErrVersionConflict) {
			t.Fatalf("ConditionalPut = %v, want version conflict", err)
		}
	}
	if h := c.Health(0); h.State != BreakerClosed {
		t.Fatalf("version conflicts opened the breaker: %+v", h)
	}
	_ = fs
}

func TestFlushReplaysSpilledEvents(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 1, ProbeInterval: time.Hour, RetryQueue: 100,
		RetryInterval: time.Hour, // drainer effectively off; Flush must replay
	})
	fs.down.Store(true)
	const events = 30
	for i := 0; i < events; i++ {
		if err := c.ProcessEventAsync(event.Event{Caller: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushEvents(); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("flush with a down node = %v, want ErrNodeDown", err)
	}
	fs.down.Store(false)
	if err := c.FlushEvents(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if got := fs.deliveredCount(); got != events {
		t.Fatalf("flush replayed %d/%d events", got, events)
	}
}

func schemaRecord(t *testing.T, id uint64) schema.Record {
	t.Helper()
	return clusterSchema(t).NewRecord(id)
}

// TestReplaceNodeReplaysSpillOntoRecoveredNode models a node restart: the
// old handle dies, events spill, then the restarted node's handle is
// swapped in and the drainer replays the entire outage backlog onto it.
func TestReplaceNodeReplaysSpillOntoRecoveredNode(t *testing.T) {
	c, fs := flakyCluster(t, HealthConfig{
		FailureThreshold: 2, ProbeInterval: time.Hour, // breaker stays open
		RetryQueue: 1000, RetryInterval: time.Millisecond,
	})
	fs.down.Store(true)
	const events = 40
	for i := 0; i < events; i++ {
		ev := event.Event{Caller: uint64(i + 1), Timestamp: int64(i + 1)}
		if err := c.ProcessEventAsync(ev); err != nil {
			t.Fatalf("event %d not absorbed: %v", i, err)
		}
	}
	if h := c.Health(0); h.QueuedEvents == 0 {
		t.Fatalf("nothing queued: %+v", h)
	}
	// The "restarted" node comes back with a fresh handle.
	recovered := &flakyStorage{}
	if err := c.ReplaceNode(0, recovered); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(0); h.State != BreakerClosed {
		t.Fatalf("breaker after replace = %v", h.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for recovered.deliveredCount() < events {
		if time.Now().After(deadline) {
			t.Fatalf("replayed %d/%d onto recovered node (health %+v)",
				recovered.deliveredCount(), events, c.Health(0))
		}
		time.Sleep(time.Millisecond)
	}
	if h := c.Health(0); h.QueuedEvents != 0 || h.Replayed < events {
		t.Fatalf("queue not drained: %+v", h)
	}
	// New traffic reaches the new handle, not the old one.
	before := fs.deliveredCount()
	if err := c.ProcessEventAsync(event.Event{Caller: 7, Timestamp: 99}); err != nil {
		t.Fatal(err)
	}
	if fs.deliveredCount() != before {
		t.Fatal("event reached the dead handle")
	}
	if err := c.ReplaceNode(5, recovered); err == nil {
		t.Fatal("out-of-range replace accepted")
	}
	if err := c.ReplaceNode(0, nil); err == nil {
		t.Fatal("nil handle accepted")
	}
}
