package repl

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/schema"
)

func replSchema(t testing.TB) *schema.Schema {
	t.Helper()
	sch, err := schema.NewBuilder().
		AddGroup(schema.GroupSpec{Name: "calls_today", Metric: schema.MetricCount,
			Window: schema.Day(), Aggs: []schema.AggKind{schema.AggCount}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func newNode(t *testing.T, arch *archive.Archive) *core.StorageNode {
	t.Helper()
	node, err := core.NewNode(core.Config{
		Schema: replSchema(t), Partitions: 2, BucketSize: 32,
		Archive: arch, IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

func openArchive(t *testing.T, opts archive.Options) *archive.Archive {
	t.Helper()
	a, err := archive.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func mkEvent(i int) event.Event {
	return event.Event{Caller: uint64(i%8) + 1, Timestamp: int64(i + 1), Duration: int64(i), Cost: 1}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerTailsArchiveIntoOwnWAL is the in-process shipping round trip:
// events appended to the primary's archive land on the follower exactly
// once, in order, and the follower's own WAL mirrors the primary's LSNs.
func TestFollowerTailsArchiveIntoOwnWAL(t *testing.T) {
	parch := openArchive(t, archive.Options{SegmentEvents: 16}) // rotate often
	farch := openArchive(t, archive.Options{})
	fnode := newNode(t, farch)
	reg := obs.NewRegistry()
	f := NewFollower(fnode, 0, FollowerConfig{Metrics: reg, Label: "s0"})
	if err := f.Start(NewArchiveSource(parch, 0, ArchiveSourceConfig{MaxEvents: 7, Heartbeat: 5 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const total = 150
	for i := 0; i < total; i++ {
		ev := mkEvent(i)
		if _, _, err := parch.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch-up", func() bool { return f.AppliedLSN() == total && f.Lag() == 0 })

	// The follower's own WAL is the primary's log, LSN for LSN.
	n := 0
	err := farch.Replay(0, func(lsn uint64, ev event.Event) error {
		if want := mkEvent(int(lsn)); ev != want {
			t.Fatalf("lsn %d: follower WAL %+v, want %+v", lsn, ev, want)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("follower WAL has %d events, want %d", n, total)
	}

	// The per-follower instruments are registered and live.
	if s, ok := reg.Find(`aim_repl_lag_events{follower="s0"}`); !ok || s.Value != 0 {
		t.Fatalf("lag gauge: found=%v value=%v", ok, s.Value)
	}
	if s, ok := reg.Find(`aim_repl_lag_seconds{follower="s0"}`); !ok || s.Value != 0 {
		t.Fatalf("lag-seconds gauge: found=%v value=%v", ok, s.Value)
	}
	if s, ok := reg.Find(`aim_repl_events_total{follower="s0"}`); !ok || s.Value != total {
		t.Fatalf("events counter: found=%v value=%v", ok, s.Value)
	}
	if s, ok := reg.Find(`aim_repl_staleness_seconds{follower="s0"}`); !ok || s.Value == 0 {
		t.Fatalf("staleness histogram: found=%v observations=%v", ok, s.Value)
	}
}

// TestFollowerTailsLivePrimaryUnderLoad: a follower tailing the WAL of a
// live primary keeps up while concurrent producers ingest into the primary
// and scans run on both nodes. Every event lands on the follower exactly
// once, its per-follower series count them, and once merged the follower
// answers a scan the same as the primary.
func TestFollowerTailsLivePrimaryUnderLoad(t *testing.T) {
	parch := openArchive(t, archive.Options{SegmentEvents: 64})
	pnode := newNode(t, parch)
	fnode := newNode(t, openArchive(t, archive.Options{}))
	reg := obs.NewRegistry()
	f := NewFollower(fnode, 0, FollowerConfig{Metrics: reg, Label: "f0"})
	if err := f.Start(NewArchiveSource(parch, 0, ArchiveSourceConfig{MaxEvents: 32, Heartbeat: 2 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	calls := replSchema(t).MustAttrIndex("calls_today_count")
	q := &query.Query{ID: 1, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
	sum := func(n *core.StorageNode) float64 {
		p, err := n.SubmitQuery(q)
		if err != nil {
			t.Error(err)
			return -1
		}
		res := p.Finalize(q)
		if len(res.Rows) == 0 {
			return 0
		}
		return res.Rows[0].Values[0]
	}

	const producers, perProducer = 4, 500
	const total = producers * perProducer
	var ingest, scans sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		scans.Wait()
	}()
	for _, n := range []*core.StorageNode{pnode, fnode} {
		scans.Add(1)
		go func(n *core.StorageNode) {
			defer scans.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sum(n)
				}
			}
		}(n)
	}
	for w := 0; w < producers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			for i := 0; i < perProducer; i++ {
				if err := pnode.ProcessEventAsync(mkEvent(w*perProducer + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ingest.Wait()
	if err := pnode.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up under load", func() bool { return f.AppliedLSN() == total && f.Lag() == 0 })

	if err := fnode.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := fnode.Stats().EventsProcessed; got != total {
		t.Fatalf("follower processed %d events, want %d", got, total)
	}
	if s, ok := reg.Find(`aim_repl_events_total{follower="f0"}`); !ok || s.Value != total {
		t.Fatalf("events counter: found=%v value=%v, want %d", ok, s.Value, total)
	}
	if s, ok := reg.Find(`aim_repl_staleness_seconds{follower="f0"}`); !ok || s.Value == 0 {
		t.Fatalf("staleness histogram: found=%v observations=%v", ok, s.Value)
	}
	waitFor(t, "merged scans agree", func() bool { return sum(pnode) == total && sum(fnode) == total })
}

// TestFollowerReopensAfterSourceFailure: a dying source is redialed via the
// Reopen hook from the applied watermark, and overlapping redelivery is
// deduplicated by the watermark skip.
func TestFollowerReopensAfterSourceFailure(t *testing.T) {
	parch := openArchive(t, archive.Options{})
	fnode := newNode(t, nil)

	var reopens atomic.Int32
	f := NewFollower(fnode, 0, FollowerConfig{
		ReopenBackoff: time.Millisecond,
		Reopen: func(fromLSN uint64) (Source, error) {
			reopens.Add(1)
			// Deliberately resubscribe a little BELOW the watermark to
			// exercise the overlap-skip path.
			from := uint64(0)
			if fromLSN > 3 {
				from = fromLSN - 3
			}
			return NewArchiveSource(parch, from, ArchiveSourceConfig{Heartbeat: 5 * time.Millisecond}), nil
		},
	})

	const half, total = 40, 80
	for i := 0; i < half; i++ {
		ev := mkEvent(i)
		if _, _, err := parch.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	src := NewArchiveSource(parch, 0, ArchiveSourceConfig{Heartbeat: 5 * time.Millisecond})
	if err := f.Start(src); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	waitFor(t, "first half", func() bool { return f.AppliedLSN() == half })

	src.Close() // the wire drops; the follower must redial
	for i := half; i < total; i++ {
		ev := mkEvent(i)
		if _, _, err := parch.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch-up after reopen", func() bool { return f.AppliedLSN() == total })
	if reopens.Load() == 0 {
		t.Fatal("Reopen hook never used")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("tail loop failed: %v", err)
	}
	// Overlap redelivery must not double-apply: exactly total events.
	if err := fnode.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := fnode.Stats().EventsProcessed; got != total {
		t.Fatalf("follower processed %d events, want %d", got, total)
	}
}

// TestFollowerDetectsGap: a stream that skips past the watermark (the
// primary GC'd the log below the subscription point) is a typed ErrGap.
func TestFollowerDetectsGap(t *testing.T) {
	parch := openArchive(t, archive.Options{SegmentEvents: 4})
	fnode := newNode(t, nil)
	for i := 0; i < 12; i++ {
		ev := mkEvent(i)
		if _, _, err := parch.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parch.TruncateBelow(8); err != nil {
		t.Fatal(err)
	}
	f := NewFollower(fnode, 0, FollowerConfig{})
	// Subscribe at the retention floor, as the server-side clamp would.
	if err := f.Start(NewArchiveSource(parch, parch.FirstLSN(), ArchiveSourceConfig{})); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	waitFor(t, "gap detection", func() bool { return f.Err() != nil })
	if !errors.Is(f.Err(), ErrGap) {
		t.Fatalf("err = %v, want ErrGap", f.Err())
	}
	if f.AppliedLSN() != 0 {
		t.Fatalf("gapped follower advanced its watermark to %d", f.AppliedLSN())
	}
}

// TestPromoteSealsAndIsIdempotent: Promote stops the tail, drains the node,
// returns the watermark, and repeats return the same answer; a sealed
// follower refuses to restart.
func TestPromoteSealsAndIsIdempotent(t *testing.T) {
	parch := openArchive(t, archive.Options{})
	fnode := newNode(t, nil)
	for i := 0; i < 25; i++ {
		ev := mkEvent(i)
		if _, _, err := parch.AppendBatch([]event.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFollower(fnode, 0, FollowerConfig{})
	if err := f.Start(NewArchiveSource(parch, 0, ArchiveSourceConfig{})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up", func() bool { return f.AppliedLSN() == 25 })

	sealed, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 25 {
		t.Fatalf("sealed at %d, want 25", sealed)
	}
	if !f.Sealed() || f.Running() {
		t.Fatalf("after promote: sealed=%v running=%v", f.Sealed(), f.Running())
	}
	if got := fnode.Stats().EventsProcessed; got != 25 {
		t.Fatalf("promote did not drain: %d events processed", got)
	}
	again, err := f.Promote()
	if err != nil || again != sealed {
		t.Fatalf("second promote: %d, %v", again, err)
	}
	if err := f.Start(NewArchiveSource(parch, sealed, ArchiveSourceConfig{})); err == nil {
		t.Fatal("sealed follower restarted its tail")
	}
}
