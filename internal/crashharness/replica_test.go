package crashharness

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/query"
	"repro/internal/repl"
	"repro/internal/rta"
	"repro/internal/workload"
)

// TestReplicaFailoverKillCampaign is the replication crash campaign: each
// iteration runs live cluster ingest against an aimserver child (the
// primary) while an in-process follower tails its WAL over the netproto
// wire. The primary is killed at a random crashpoint or wall-clock instant;
// the cluster's failure monitor must auto-promote the follower — sealing it
// at its watermark and topping it up from the dead primary's salvaged WAL —
// with zero acknowledged-event loss:
//
//  1. The promoted follower's own WAL starts with the primary's salvaged
//     log, LSN for LSN (every event the primary durably acknowledged
//     survived the failover exactly once, in order).
//  2. The promoted matrix equals a synchronous replay oracle of the
//     follower's WAL record for record (the post-failover state is exactly
//     explained by its log — never silently wrong).
//
// RTA queries run throughout and must either succeed (served by the
// follower during the blackout) or fail with the typed ErrNodeFailure.
//
// A tiered primary can hit its kill point before the harness attaches.
// Dying before the follower's first subscribe is an iteration whose
// follower holds nothing: the promotion's top-up carries the whole salvaged
// WAL from LSN 0 and the same checks run. Dying before any client connects
// leaves nothing to ingest or check beyond an empty salvaged WAL.
// AIM_REPL_KILLS sets the iteration count (default 4 so plain `go test`
// stays fast; `make replica-crash` runs 50).
func TestReplicaFailoverKillCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("replica crash harness skipped in -short")
	}
	iters := 4
	if v := os.Getenv("AIM_REPL_KILLS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad AIM_REPL_KILLS %q", v)
		}
		iters = n
	}
	seed := time.Now().UnixNano()
	if v := os.Getenv("AIM_CRASH_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad AIM_CRASH_SEED %q", v)
		}
		seed = n
	}
	t.Logf("replica campaign: %d iterations, seed %d (rerun with AIM_CRASH_SEED=%d)", iters, seed, seed)
	rng := rand.New(rand.NewSource(seed))
	bin := buildServer(t)
	points := crashpoint.Points()
	tally := killTally{}
	defer tally.log(t)

	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	dims, err := workload.BuildDimensions(42) // aimserver's default seed
	if err != nil {
		t.Fatal(err)
	}

	for iter := 0; iter < iters; iter++ {
		iterDir := filepath.Join(t.TempDir(), fmt.Sprintf("it%03d", iter))
		dataDir := filepath.Join(iterDir, "data")
		tailWal := filepath.Join(iterDir, "tailwal")

		// Half the iterations run a tiered primary (tiny bucket, eager
		// freezing) so deaths land mid-freeze/thaw with the WAL stream live;
		// flat iterations never arm the freeze point — it can't fire there.
		tiered := iter%2 == 0

		spec := ""
		if iter%4 != 3 {
			p := points[rng.Intn(len(points))]
			for !tiered && p == crashpoint.CoreBucketFreeze {
				p = points[rng.Intn(len(points))]
			}
			spec = fmt.Sprintf("%s:%d", p, 1+rng.Intn(60))
		}
		extra := []string{"-checkpoint-every", "25ms", "-base-every", "3", "-checkpoint-gc=false",
			"-repl-heartbeat", "5ms"}
		extra = append(extra, fsyncFor(spec)...)
		if tiered {
			extra = append(extra, "-bucket", "8", "-bucket-freeze", "-cold-after", "0")
		}
		srv, err := startServer(t, bin, dataDir, spec, extra...)
		var cli *netproto.Client
		if err == nil {
			cli, err = netproto.DialConfig(srv.addr, sch, netproto.ClientConfig{
				CallTimeout: 2 * time.Second, MaxRetries: -1, DisableReconnect: true,
				EventBatch: 64, EventLinger: time.Millisecond,
			})
			if err != nil && srv.waitExit(4*time.Second) != crashpoint.ExitCode {
				t.Fatalf("iter %d (spec %q): dial: %v", iter, spec, err)
			}
		} else if !strings.Contains(err.Error(), "crashpoint: killing process") {
			t.Fatalf("iter %d (spec %q): %v", iter, spec, err)
		}
		if cli == nil {
			// Killed before any client connected: nothing was ingested, so
			// the salvaged WAL must be empty.
			copyDir(t, filepath.Join(dataDir, "wal"), tailWal)
			truth, err := archive.Open(tailWal, archive.Options{Recovery: archive.Salvage})
			if err != nil {
				t.Fatalf("iter %d: salvage primary WAL: %v", iter, err)
			}
			if n := truth.NextLSN(); n != 0 {
				t.Fatalf("iter %d (spec %q): primary killed before any client connected holds %d events", iter, spec, n)
			}
			truth.Close()
			tally.add(spec, crashpoint.ExitCode)
			t.Logf("iter %d (spec %q): primary killed before any client connected; salvaged WAL empty", iter, spec)
			if err := os.RemoveAll(iterDir); err != nil {
				t.Fatal(err)
			}
			continue
		}

		// The follower: its own WAL-backed node, tailing the child over TCP.
		farch, err := archive.Open(filepath.Join(iterDir, "fwal"), archive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fnode, err := core.NewNode(core.Config{
			Schema: sch, Dims: dims.Store, Partitions: 2, BucketSize: 256,
			Factory: dims.Factory(sch), Archive: farch,
		})
		if err != nil {
			t.Fatal(err)
		}
		follower := repl.NewFollower(fnode, 0, repl.FollowerConfig{
			ReopenBackoff: 2 * time.Millisecond,
			Reopen: func(from uint64) (repl.Source, error) {
				return netproto.DialReplica(srv.addr, from)
			},
		})
		if src, err := netproto.DialReplica(srv.addr, 0); err != nil {
			t.Logf("iter %d (spec %q): primary gone before the first subscribe (%v); the follower starts empty", iter, spec, err)
		} else if err := follower.Start(src); err != nil {
			t.Fatal(err)
		}

		// The cluster ingests through the primary's breaker and auto-promotes
		// after the primary stays down; the top-up replays the dead child's
		// salvaged WAL (a private copy — salvage repairs in place, and the
		// original is this iteration's ground truth).
		cl, err := cluster.NewWithOptions([]core.Storage{cli}, cluster.Options{
			Health: cluster.HealthConfig{
				FailureThreshold: 3, ProbeInterval: 100 * time.Millisecond,
				RetryQueue: 1 << 17, RetryInterval: 5 * time.Millisecond,
			},
			Replicas: cluster.ReplicaConfig{
				AutoPromote: true, PromoteAfter: 150 * time.Millisecond,
				CheckInterval: 10 * time.Millisecond,
				ReplayTail: func(_ int, fromLSN uint64, emit func(evs []event.Event) error) error {
					copyDir(t, filepath.Join(dataDir, "wal"), tailWal)
					arch, err := archive.Open(tailWal, archive.Options{Recovery: archive.Salvage})
					if err != nil {
						return err
					}
					defer arch.Close()
					return repl.ReplayArchiveTail(arch, fromLSN, 256, emit)
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.AttachFollower(0, follower); err != nil {
			t.Fatal(err)
		}

		var stop atomic.Bool
		sentCh := make(chan int, 1)
		go func() {
			sent := 0
			for i := 0; !stop.Load(); i++ {
				if err := cl.ProcessEventAsync(mkEvent(i)); err == nil {
					sent++
				}
				// ~64k events/s: enough to keep every pipeline stage busy
				// without drowning the verification replay in tens of
				// millions of events.
				if i%64 == 63 {
					time.Sleep(time.Millisecond)
				}
			}
			sentCh <- sent
		}()

		// RTA keeps querying through the blackout: success or typed failure,
		// never anything else.
		coord, err := rta.NewCoordinatorBackends(cl, rta.Config{Policy: rta.PolicyDegraded})
		if err != nil {
			t.Fatal(err)
		}
		var qstop atomic.Bool
		var qmu sync.Mutex
		var qbad error
		queries, served := 0, 0
		var qwg sync.WaitGroup
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 1; !qstop.Load(); i++ {
				q := &query.Query{ID: uint64(i), Aggs: []query.AggExpr{{Op: query.OpCount}}, GroupBy: -1}
				res, err := coord.Execute(q)
				qmu.Lock()
				queries++
				if err == nil {
					served++
					if res.Incomplete && res.CoveredNodes != 0 {
						// fine: degraded coverage is flagged, not silent
					}
				} else if !errors.Is(err, rta.ErrNodeFailure) && qbad == nil {
					qbad = err
				}
				qmu.Unlock()
				time.Sleep(2 * time.Millisecond)
			}
		}()

		// Kill the primary under live load.
		var exitCode int
		if spec == "" {
			time.Sleep(time.Duration(150+rng.Intn(450)) * time.Millisecond)
			srv.sigkill()
			exitCode = -1
		} else {
			exitCode = srv.waitExit(4 * time.Second)
		}
		if exitCode == 0 {
			t.Fatalf("iter %d (spec %q): primary exited cleanly mid-campaign", iter, spec)
		}
		if spec != "" {
			tally.add(spec, exitCode)
		}

		// The failure monitor must promote the follower on its own.
		deadline := time.Now().Add(15 * time.Second)
		for cl.Promotions() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("iter %d (spec %q, exit %d): no auto-promotion within 15s (follower err: %v)",
					iter, spec, exitCode, follower.Err())
			}
			time.Sleep(2 * time.Millisecond)
		}
		stop.Store(true)
		sent := <-sentCh
		qstop.Store(true)
		qwg.Wait()
		qmu.Lock()
		if qbad != nil {
			t.Fatalf("iter %d: RTA query failed with an untyped error: %v", iter, qbad)
		}
		qmu.Unlock()
		// Quiesce before snapshotting: FlushEvents drains the coalescing
		// buffers and the spill queue, Close joins the background drainer
		// (whose in-flight batch could otherwise land mid-verification), and
		// the second flush catches anything a dying delivery requeued.
		if err := cl.FlushEvents(); err != nil {
			t.Fatalf("iter %d: post-failover flush: %v", iter, err)
		}
		cl.Close()
		if err := cl.FlushEvents(); err != nil {
			t.Fatalf("iter %d: final flush: %v", iter, err)
		}

		// Check 1: the promoted follower's WAL begins with the dead
		// primary's salvaged log, LSN for LSN.
		truth, err := archive.Open(tailWal, archive.Options{Recovery: archive.Salvage})
		if err != nil {
			t.Fatalf("iter %d: reopen salvaged primary WAL: %v", iter, err)
		}
		acked := truth.NextLSN()
		pevs := make([]event.Event, 0, acked)
		if err := truth.Replay(0, func(_ uint64, ev event.Event) error {
			pevs = append(pevs, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		truth.Close()
		if err := fnode.FlushEvents(); err != nil {
			t.Fatal(err)
		}
		fevs := make([]event.Event, 0, acked)
		if err := farch.Replay(0, func(_ uint64, ev event.Event) error {
			fevs = append(fevs, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if uint64(len(fevs)) < acked {
			t.Fatalf("iter %d (spec %q, exit %d): primary acked %d events, follower WAL holds %d — acked loss",
				iter, spec, exitCode, acked, len(fevs))
		}
		for lsn := uint64(0); lsn < acked; lsn++ {
			if fevs[lsn] != pevs[lsn] {
				t.Fatalf("iter %d: WAL divergence at lsn %d: follower %+v, primary %+v",
					iter, lsn, fevs[lsn], pevs[lsn])
			}
		}

		// Check 2: the promoted matrix is exactly a synchronous replay of
		// the follower's WAL (prefix + top-up + spill redeliveries).
		oracle, err := core.NewNode(core.Config{
			Schema: sch, Dims: dims.Store, Partitions: 2, BucketSize: 256,
			Factory: dims.Factory(sch),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range fevs {
			if err := oracle.ProcessEventAsync(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := oracle.FlushEvents(); err != nil {
			t.Fatal(err)
		}
		for e := uint64(1); e <= entities; e++ {
			want, _, wantOK, err := oracle.Get(e)
			if err != nil {
				t.Fatal(err)
			}
			got, _, ok, err := fnode.Get(e)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK {
				t.Fatalf("iter %d: entity %d present=%v, oracle=%v", iter, e, ok, wantOK)
			}
			if !ok {
				continue
			}
			for s := 0; s < sch.Slots; s++ {
				if s == sch.VersionSlot {
					continue
				}
				if got[s] != want[s] {
					t.Fatalf("iter %d: entity %d slot %d: promoted %#x, oracle %#x",
						iter, e, s, got[s], want[s])
				}
			}
		}
		oracle.Stop()

		qmu.Lock()
		t.Logf("iter %d (spec %q, exit %d): %d events sent, %d acked by primary, %d on promoted node; %d/%d RTA queries served",
			iter, spec, exitCode, sent, acked, len(fevs), served, queries)
		qmu.Unlock()

		cli.Close()
		fnode.Stop()
		farch.Close()
		if err := os.RemoveAll(iterDir); err != nil {
			t.Fatal(err)
		}
	}
}
