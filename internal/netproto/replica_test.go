package netproto

import (
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/repl"
	"repro/internal/schema"
)

// startReplPair boots a durable primary (own WAL) served with replication
// enabled, plus a client for control RPCs.
func startReplPair(t *testing.T, cfg ServerConfig) (*Client, *Server, *core.StorageNode, *archive.Archive, *schema.Schema) {
	t.Helper()
	sch := netSchema(t)
	arch, err := archive.Open(t.TempDir(), archive.Options{SegmentEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	node, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 2, BucketSize: 32,
		Archive: arch, IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReplArchive = arch
	if cfg.ReplHeartbeat == 0 {
		cfg.ReplHeartbeat = 5 * time.Millisecond
	}
	srv, err := ServeWithConfig("127.0.0.1:0", node, sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		node.Stop()
		arch.Close()
	})
	return cli, srv, node, arch, sch
}

func replWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaStreamOverTCP ships the primary's WAL over the wire into a
// follower node: subscribe-from-LSN, batched log records, and heartbeats
// that keep the frontier moving while the primary is idle.
func TestReplicaStreamOverTCP(t *testing.T) {
	cli, srv, _, _, _ := startReplPair(t, ServerConfig{ReplBatch: 16})

	fnode, err := core.NewNode(core.Config{
		Schema: netSchema(t), Partitions: 2, BucketSize: 32,
		IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fnode.Stop()

	rc, err := DialReplica(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc.StartLSN() != 0 {
		t.Fatalf("subscription started at %d, want 0", rc.StartLSN())
	}
	f := repl.NewFollower(fnode, 0, repl.FollowerConfig{})
	if err := f.Start(rc); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const total = 300
	for i := 0; i < total; i++ {
		ev := event.Event{Caller: uint64(i%20) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	replWait(t, "follower catch-up over TCP", func() bool {
		return f.AppliedLSN() == total && f.Lag() == 0
	})
	if err := fnode.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := fnode.Stats().EventsProcessed; got != total {
		t.Fatalf("follower processed %d events, want %d", got, total)
	}
	// Idle heartbeats keep arriving: the frontier stays observed, lag 0.
	time.Sleep(20 * time.Millisecond)
	if f.Err() != nil {
		t.Fatalf("tail loop died on idle stream: %v", f.Err())
	}
}

// TestReplicaResubscribeFromWatermark: a dropped stream redials from the
// applied watermark and resumes without loss or double-apply.
func TestReplicaResubscribeFromWatermark(t *testing.T) {
	cli, srv, _, _, _ := startReplPair(t, ServerConfig{})

	fnode, err := core.NewNode(core.Config{
		Schema: netSchema(t), Partitions: 2, BucketSize: 32,
		IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fnode.Stop()

	rc, err := DialReplica(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := repl.NewFollower(fnode, 0, repl.FollowerConfig{
		ReopenBackoff: time.Millisecond,
		Reopen: func(fromLSN uint64) (repl.Source, error) {
			return DialReplica(srv.Addr(), fromLSN)
		},
	})
	if err := f.Start(rc); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	const half, total = 120, 240
	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev := event.Event{Caller: uint64(i%20) + 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
			if err := cli.ProcessEventAsync(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.FlushEvents(); err != nil {
			t.Fatal(err)
		}
	}
	send(0, half)
	replWait(t, "first half", func() bool { return f.AppliedLSN() == half })

	rc.Close() // drop the wire; the follower must redial from its watermark
	send(half, total)
	replWait(t, "catch-up after redial", func() bool { return f.AppliedLSN() == total })
	if err := fnode.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if got := fnode.Stats().EventsProcessed; got != total {
		t.Fatalf("follower processed %d events, want %d (exactly once)", got, total)
	}
}

// TestReplicaSubscribeClampsToRetentionFloor: subscribing below the
// primary's GC'd retention floor clamps the stream up to the floor, and the
// follower surfaces the jump as a typed gap instead of silently skipping.
func TestReplicaSubscribeClampsToRetentionFloor(t *testing.T) {
	cli, srv, _, arch, _ := startReplPair(t, ServerConfig{})
	for i := 0; i < 100; i++ {
		ev := event.Event{Caller: 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	if _, err := arch.TruncateBelow(64); err != nil {
		t.Fatal(err)
	}
	floor := arch.FirstLSN()
	if floor == 0 {
		t.Fatal("truncation removed nothing; test needs a nonzero floor")
	}
	rc, err := DialReplica(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.StartLSN() != floor {
		t.Fatalf("subscription started at %d, want clamp to floor %d", rc.StartLSN(), floor)
	}
	b, err := rc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstLSN != floor {
		t.Fatalf("first batch at lsn %d, want %d", b.FirstLSN, floor)
	}
}

// TestReplProbeAndPromoteRPCs: the lag probe reports the primary's frontier
// and the promote RPC runs the server's OnPromote hook.
func TestReplProbeAndPromoteRPCs(t *testing.T) {
	var promoted bool
	cli, _, _, arch, _ := startReplPair(t, ServerConfig{
		OnPromote: func() (uint64, error) {
			promoted = true
			return 77, nil
		},
	})
	for i := 0; i < 50; i++ {
		ev := event.Event{Caller: 1, Timestamp: int64(i + 1), Duration: 5, Cost: 1}
		if err := cli.ProcessEventAsync(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.FlushEvents(); err != nil {
		t.Fatal(err)
	}
	frontier, err := cli.ReplProbe()
	if err != nil {
		t.Fatal(err)
	}
	if want := arch.NextLSN(); frontier != want {
		t.Fatalf("probe frontier = %d, want %d", frontier, want)
	}
	sealed, err := cli.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if !promoted || sealed != 77 {
		t.Fatalf("promote RPC: hook=%v sealed=%d", promoted, sealed)
	}
}

// TestReplRPCsWithoutArchive: a server without a WAL refuses replication
// cleanly instead of hanging subscribers.
func TestReplRPCsWithoutArchive(t *testing.T) {
	sch := netSchema(t)
	node, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 2, BucketSize: 32,
		IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", node, sch)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		node.Stop()
	})
	if _, err := DialReplica(srv.Addr(), 0); err == nil {
		t.Fatal("subscribe against a WAL-less server succeeded")
	}
	cli, err := Dial(srv.Addr(), sch)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Promote(); err == nil {
		t.Fatal("promote against a server with no OnPromote hook succeeded")
	}
}

// TestServeRejectsHeartbeatPastReadTimeout: a subscriber gives up on a
// stream that stays silent for its 2s read timeout, so a heartbeat that long
// or longer would turn every quiet stretch into a timeout and a redial. The
// server refuses such a heartbeat up front instead.
func TestServeRejectsHeartbeatPastReadTimeout(t *testing.T) {
	sch := netSchema(t)
	node, err := core.NewNode(core.Config{Schema: sch, Partitions: 1, BucketSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	for _, hb := range []time.Duration{2 * time.Second, 3 * time.Second} {
		if srv, err := ServeWithConfig("127.0.0.1:0", node, sch, ServerConfig{ReplHeartbeat: hb}); err == nil {
			srv.Close()
			t.Errorf("heartbeat %v accepted", hb)
		}
	}
	srv, err := ServeWithConfig("127.0.0.1:0", node, sch, ServerConfig{ReplHeartbeat: time.Second})
	if err != nil {
		t.Fatalf("heartbeat 1s rejected: %v", err)
	}
	srv.Close()
}
