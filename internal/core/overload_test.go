package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
)

// stallWorker parks worker 0's ESP loop inside a kindExec request until the
// returned release func is called. While parked the worker drains nothing,
// so the test controls the queue depth exactly.
func stallWorker(t *testing.T, n *StorageNode) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{})
	n.workers[0].ch <- espRequest{kind: kindExec, resp: make(chan espResponse, 1), fn: func() error {
		close(entered)
		<-gate
		return nil
	}}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the stall request")
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// TestAsyncBlockedProducerAcrossStop pins the legacy (overload-disabled)
// contract under -race: producers blocked on a full ESP queue when Stop is
// called are unblocked by the worker's drain-on-stop, every blocked event is
// applied, and nothing deadlocks or races.
func TestAsyncBlockedProducerAcrossStop(t *testing.T) {
	n := newTestNode(t, Config{Partitions: 1, ESPThreads: 1, ESPQueueLen: 2})
	release := stallWorker(t, n)
	defer release()

	// Fill the queue to capacity without blocking.
	for i := 0; i < 2; i++ {
		if err := n.ProcessEventAsync(mkEvent(uint64(i)+1, int64(i))); err != nil {
			t.Fatalf("fill event %d: %v", i, err)
		}
	}

	// These producers block in the channel send: the queue is full and the
	// worker is parked.
	const blocked = 4
	var wg sync.WaitGroup
	errs := make([]error, blocked)
	for i := 0; i < blocked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = n.ProcessEventAsync(mkEvent(uint64(i)+10, int64(i)))
		}(i)
	}
	// Let every producer reach the send and park on the full channel.
	time.Sleep(100 * time.Millisecond)

	stopDone := make(chan struct{})
	go func() {
		n.Stop()
		close(stopDone)
	}()
	// Stop must be waiting on the parked worker, not completing early and
	// stranding the blocked producers.
	select {
	case <-stopDone:
		t.Fatal("Stop returned while the worker was still parked")
	case <-time.After(20 * time.Millisecond):
	}

	release()
	select {
	case <-stopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not complete after the worker was released")
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("blocked producer %d: %v", i, err)
		}
	}
	if got := n.Stats().EventsProcessed; got != 2+blocked {
		t.Fatalf("EventsProcessed = %d, want %d (drain-on-stop must apply every accepted event)", got, 2+blocked)
	}
}

// TestAdmissionRejectsTypedAtQueueSoftLimit proves the overload-enabled
// ingest path rejects with a typed retry-after error instead of blocking
// once the ESP queue passes the soft limit, and that every accepted event
// is still applied (no silent loss at the admission boundary).
func TestAdmissionRejectsTypedAtQueueSoftLimit(t *testing.T) {
	n := newTestNode(t, Config{
		Partitions: 1, ESPThreads: 1, ESPQueueLen: 8,
		Overload: OverloadConfig{Enabled: true, RetryAfter: 3 * time.Millisecond},
	})
	release := stallWorker(t, n)
	defer release()

	// Soft limit defaults to 7/8 of the queue; with the worker parked the
	// depth only grows, so rejection must hit within ESPQueueLen attempts.
	accepted := 0
	var rejection error
	for i := 0; i < 16; i++ {
		err := n.ProcessEventAsync(mkEvent(uint64(i%3)+1, int64(i)))
		if err == nil {
			accepted++
			continue
		}
		rejection = err
		break
	}
	if rejection == nil {
		t.Fatal("no rejection despite a parked worker and a full queue")
	}
	if !errors.Is(rejection, ErrOverloaded) {
		t.Fatalf("rejection = %v, want errors.Is ErrOverloaded", rejection)
	}
	if d, ok := RetryAfterHint(rejection); !ok || d != 3*time.Millisecond {
		t.Fatalf("RetryAfterHint = (%v, %v), want (3ms, true)", d, ok)
	}
	if accepted == 0 {
		t.Fatal("admission rejected the very first event on an empty queue")
	}

	// A batch must be all-or-nothing at the same boundary: nothing applied,
	// nothing logged, caller keeps the events.
	if err := n.ProcessEventBatch([]event.Event{mkEvent(1, 100), mkEvent(2, 101)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch past the soft limit = %v, want ErrOverloaded", err)
	}

	release()
	if err := n.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().EventsProcessed; got != uint64(accepted) {
		t.Fatalf("EventsProcessed = %d, want %d: admitted and applied counts must match exactly", got, accepted)
	}
}

// TestSyncEventSkipsAdmission pins the admission scope: only fire-and-forget
// ingest is admission-checked. With the worker parked and its queue past the
// soft limit, ProcessEventAsync rejects typed, while a concurrent
// ProcessEvent is accepted and completes once the worker is released.
func TestSyncEventSkipsAdmission(t *testing.T) {
	n := newTestNode(t, Config{
		Partitions: 1, ESPThreads: 1, ESPQueueLen: 8,
		Overload: OverloadConfig{Enabled: true},
	})
	release := stallWorker(t, n)
	defer release()

	var rejection error
	for i := 0; i < 16 && rejection == nil; i++ {
		rejection = n.ProcessEventAsync(mkEvent(uint64(i%3)+1, int64(i)))
	}
	if !errors.Is(rejection, ErrOverloaded) {
		t.Fatalf("async past the soft limit = %v, want ErrOverloaded", rejection)
	}

	type result struct {
		firings int
		err     error
	}
	done := make(chan result, 1)
	go func() {
		nf, err := n.ProcessEvent(mkEvent(1, 100))
		done <- result{nf, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("sync event returned %+v while the worker was parked", r)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("sync event past the soft limit = %v, want success", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sync event never completed after the worker was released")
	}
}
