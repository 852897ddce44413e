package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/event"
)

// TestLogOrderEqualsApplyOrder: producers hammer the same entities with
// order-sensitive events, and the live matrix must equal a synchronous
// replay of the WAL record for record. Producer p stamps its events into
// day 100+p, so every switch between producers on an entity resets that
// entity's "today" window, and each event's duration is unique, so the
// surviving window sum names exactly which events the last run held. If a
// producer could log before another but enqueue after it, the live node
// would apply an order the log does not hold, and recovery would rebuild a
// different matrix. The interleaving is up to the scheduler, so the test
// runs several rounds.
func TestLogOrderEqualsApplyOrder(t *testing.T) {
	const rounds, producers, perProducer, entities = 8, 4, 20000, 4
	// More Ps than cores: the OS then deschedules producers at arbitrary
	// instructions, which is what opens a gap between append and enqueue.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * producers))
	sch := testSchema(t)
	for round := 0; round < rounds && !t.Failed(); round++ {
		arch, err := archive.Open(filepath.Join(t.TempDir(), fmt.Sprintf("wal%d", round)), archive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		live := newTestNode(t, Config{Schema: sch, Partitions: 2, ESPThreads: 2, Archive: arch})
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					ev := event.Event{
						Caller:    uint64(i%entities) + 1,
						Callee:    99,
						Timestamp: int64(100+p)*dayMs + int64(i),
						Duration:  int64(p*perProducer + i + 1),
					}
					if err := live.ProcessEventAsync(ev); err != nil {
						t.Error(err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
		if err := live.FlushEvents(); err != nil {
			t.Fatal(err)
		}

		ref := newTestNode(t, Config{Schema: sch, Partitions: 2, ESPThreads: 2})
		logged := 0
		if err := arch.Replay(0, func(_ uint64, ev event.Event) error {
			logged++
			return ref.ProcessEventAsync(ev)
		}); err != nil {
			t.Fatal(err)
		}
		if err := ref.FlushEvents(); err != nil {
			t.Fatal(err)
		}
		if logged != producers*perProducer {
			t.Fatalf("round %d: WAL holds %d events, want %d", round, logged, producers*perProducer)
		}
		for e := uint64(1); e <= entities; e++ {
			got, _, ok, err := live.Get(e)
			if err != nil || !ok {
				t.Fatalf("round %d: live entity %d: ok=%v err=%v", round, e, ok, err)
			}
			want, _, ok, err := ref.Get(e)
			if err != nil || !ok {
				t.Fatalf("round %d: replayed entity %d: ok=%v err=%v", round, e, ok, err)
			}
			for s := range want {
				if got[s] != want[s] {
					t.Errorf("round %d: entity %d slot %d: live %d, WAL replay %d", round, e, s, got[s], want[s])
				}
			}
		}
		live.Stop()
		ref.Stop()
		if err := arch.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
