package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/rta"
	"repro/internal/schema"
)

// ReplicaFailover measures the WAL-shipping replication story end to end:
// a durable TCP primary with one follower replica tailing its log over the
// wire, live ingest plus degraded-policy RTA queries throughout, and a
// primary kill mid-run. Three phases are reported — healthy (replica offloads
// scans), failover (the blackout window while the breaker opens and the
// follower is sealed, topped up and promoted), and promoted (the follower
// serving as the new primary) — along with the promotion latency, the
// longest RTA outage, and a zero-acked-loss check against the follower WAL.
func ReplicaFailover(p Params) (*Table, error) {
	sch, err := schema.NewBuilder().
		AddGroup(schema.GroupSpec{Name: "calls_today", Metric: schema.MetricCount,
			Window: schema.Day(), Aggs: []schema.AggKind{schema.AggCount}}).
		Build()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "aim-replica-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	parch, err := archive.Open(filepath.Join(dir, "pwal"), archive.Options{})
	if err != nil {
		return nil, err
	}
	defer parch.Close()
	pnode, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 2, BucketSize: p.BucketSize,
		Archive: parch, IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	defer pnode.Stop()
	srv, err := netproto.ServeWithConfig("127.0.0.1:0", pnode, sch, netproto.ServerConfig{
		ReplArchive: parch, ReplHeartbeat: 5 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cli, err := netproto.DialConfig(srv.Addr(), sch, netproto.ClientConfig{
		CallTimeout: time.Second, MaxRetries: -1, DisableReconnect: true,
		EventBatch: 64, EventLinger: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	farch, err := archive.Open(filepath.Join(dir, "fwal"), archive.Options{})
	if err != nil {
		return nil, err
	}
	defer farch.Close()
	fnode, err := core.NewNode(core.Config{
		Schema: sch, Partitions: 2, BucketSize: p.BucketSize,
		Archive: farch, IdleMergePause: 200 * time.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	defer fnode.Stop()
	follower := repl.NewFollower(fnode, 0, repl.FollowerConfig{
		ReopenBackoff: 2 * time.Millisecond,
		Reopen: func(from uint64) (repl.Source, error) {
			return netproto.DialReplica(srv.Addr(), from)
		},
	})
	src, err := netproto.DialReplica(srv.Addr(), 0)
	if err != nil {
		return nil, err
	}
	if err := follower.Start(src); err != nil {
		return nil, err
	}
	defer follower.Stop()

	cl, err := cluster.NewWithOptions([]core.Storage{cli}, cluster.Options{
		Health: cluster.HealthConfig{
			FailureThreshold: 3, ProbeInterval: 50 * time.Millisecond,
			RetryQueue: 1 << 16, RetryInterval: 5 * time.Millisecond,
		},
		Replicas: cluster.ReplicaConfig{
			AutoPromote: true, PromoteAfter: 100 * time.Millisecond,
			CheckInterval: 5 * time.Millisecond,
			ReplayTail: func(_ int, fromLSN uint64, emit func(evs []event.Event) error) error {
				// In-process "salvage": the primary's archive object survives
				// the kill the way its on-disk WAL would.
				return repl.ReplayArchiveTail(parch, fromLSN, 256, emit)
			},
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if err := cl.AttachFollower(0, follower); err != nil {
		return nil, err
	}
	coord, err := rta.NewCoordinatorBackends(cl, rta.Config{Policy: rta.PolicyDegraded})
	if err != nil {
		return nil, err
	}

	window := p.Duration
	if window < 300*time.Millisecond {
		window = 300 * time.Millisecond
	}
	tbl := &Table{
		Title:  "Replica failover: 1 primary + 1 WAL-shipped follower over TCP (window " + window.String() + "/phase)",
		Header: []string{"phase", "ingest_ev_s", "rta_qps", "rta_ok", "rta_partial", "rta_err", "replica_served"},
	}

	calls := sch.MustAttrIndex("calls_today_count")
	var qid, totalSent uint64
	var lastQueryOK time.Time
	var longestGap time.Duration
	runPhase := func(name string, until func() bool) {
		var sent, qOK, qPartial, qErr, replicaServed int
		start := time.Now()
		for !until() {
			for i := 0; i < 64; i++ {
				ev := event.Event{
					Caller:    totalSent%997 + 1,
					Timestamp: 100*24*3600*1000 + int64(totalSent),
					Duration:  5, Cost: 1,
				}
				if err := cl.ProcessEventAsync(ev); err == nil {
					sent++
				}
				totalSent++
			}
			qid++
			res, err := coord.Execute(&query.Query{
				ID: qid, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1,
			})
			now := time.Now()
			switch {
			case err != nil:
				qErr++
			case res.Incomplete:
				qPartial++
			default:
				qOK++
			}
			if err == nil {
				if !lastQueryOK.IsZero() && now.Sub(lastQueryOK) > longestGap {
					longestGap = now.Sub(lastQueryOK)
				}
				lastQueryOK = now
				if res.ReplicaShards > 0 {
					replicaServed++
				}
			}
			time.Sleep(time.Millisecond)
		}
		el := time.Since(start).Seconds()
		queries := qOK + qPartial + qErr
		tbl.AddRow(name, int(float64(sent)/el), fmt.Sprintf("%.0f", float64(queries)/el),
			qOK, qPartial, qErr, replicaServed)
	}

	healthyEnd := time.Now().Add(window)
	runPhase("healthy", func() bool { return !time.Now().Before(healthyEnd) })

	// Kill the primary: the listener and every conn die; the follower's
	// stream drops and its redials are refused, exactly like a dead host
	// whose disk (the WAL) survives.
	ackedAtKill := parch.NextLSN()
	killAt := time.Now()
	srv.Close()
	failoverDeadline := time.Now().Add(15 * time.Second)
	runPhase("failover", func() bool {
		return cl.Promotions() > 0 || time.Now().After(failoverDeadline)
	})
	if cl.Promotions() == 0 {
		return nil, fmt.Errorf("bench: no auto-promotion within 15s (follower err: %v)", follower.Err())
	}
	promoteLatency := time.Since(killAt)

	promotedEnd := time.Now().Add(window)
	runPhase("promoted", func() bool { return !time.Now().Before(promotedEnd) })

	// Zero-acked-loss check: everything the primary durably logged before
	// the kill must be in the promoted follower's own WAL.
	if err := cl.FlushEvents(); err != nil {
		return nil, fmt.Errorf("bench: post-failover flush: %w", err)
	}
	if err := fnode.FlushEvents(); err != nil {
		return nil, err
	}
	if got := farch.NextLSN(); got < ackedAtKill {
		return nil, fmt.Errorf("bench: acked-event loss: primary logged %d events, promoted WAL holds %d",
			ackedAtKill, got)
	}
	tbl.Note("failover blackout: promotion %.0f ms after the kill; longest gap between successful RTA queries %.0f ms",
		float64(promoteLatency.Microseconds())/1000, float64(longestGap.Microseconds())/1000)
	tbl.Note("zero-loss: %d events acked by the primary before the kill, %d on the promoted follower's WAL after top-up + spill replay",
		ackedAtKill, farch.NextLSN())
	return tbl, nil
}
