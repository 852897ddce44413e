// aimserver runs one AIM storage server over TCP, hosting a partition of
// the Analytics Matrix with colocated ESP threads (the paper's preferred
// architecture (b)). Point aimload at one or more aimservers to drive the
// benchmark across processes or machines.
//
// Usage:
//
//	aimserver -addr :7070
//	aimserver -addr :7070 -partitions 5 -esp 1 -bucket 3072 -full -rules 300
//	aimserver -addr :7070 -data-dir /var/lib/aim -checkpoint-every 10s -recover auto
//	aimserver -addr :7071 -data-dir /var/lib/aim-f -follow 127.0.0.1:7070
//
// All aimservers in a cluster must use identical schema flags. With
// -data-dir, every ingested event is write-ahead-logged to the archive,
// fuzzy checkpoints run in the background, and on start the node recovers
// from checkpoint + archive-tail replay (see -recover for the corruption
// policy).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/workload"
)

// seed generates the dimension tables and the rule set. Clients rebuild both
// from the same value (aimload's -seed default, e2ebench, crashharness).
const seed = 42

// openDurable recovers the archive + checkpoint state under dataDir and
// builds the node from it, honoring the -recover policy: strict and salvage
// force one mode; auto tries strict first and falls back to salvage when —
// and only when — validation found corruption.
func openDurable(dataDir, mode string, fsync bool, cfg core.Config, reg *obs.Registry) (*core.StorageNode, *archive.Archive, *checkpoint.Manager, error) {
	walDir := filepath.Join(dataDir, "wal")
	ckptDir := filepath.Join(dataDir, "ckpt")
	openArch := func(rm archive.RecoveryMode) (*archive.Archive, error) {
		return archive.Open(walDir, archive.Options{
			SyncOnWrite: fsync, Recovery: rm, Metrics: reg,
		})
	}
	var arch *archive.Archive
	var err error
	switch mode {
	case "strict":
		arch, err = openArch(archive.Strict)
	case "salvage":
		arch, err = openArch(archive.Salvage)
	case "auto":
		arch, err = openArch(archive.Strict)
		if err != nil && errors.Is(err, archive.ErrCorrupt) {
			log.Printf("aimserver: archive corrupt (%v); retrying in salvage mode", err)
			arch, err = openArch(archive.Salvage)
		}
	default:
		return nil, nil, nil, fmt.Errorf("bad -recover mode %q (want auto, strict, or salvage)", mode)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if rep := arch.Report(); !rep.Clean() {
		log.Printf("aimserver: archive salvage dropped %d frames (%d B truncated, %d segments quarantined)",
			rep.FramesDropped, rep.BytesTruncated, len(rep.QuarantinedFiles))
	}
	mgr, err := checkpoint.NewManager(ckptDir)
	if err != nil {
		arch.Close()
		return nil, nil, nil, err
	}
	cfg.Archive = arch
	restore := func(lm checkpoint.LoadMode) (*core.StorageNode, *core.RecoveryReport, error) {
		return core.RestoreWithReport(cfg, mgr, lm)
	}
	var node *core.StorageNode
	var rep *core.RecoveryReport
	switch mode {
	case "salvage":
		node, rep, err = restore(checkpoint.Salvage)
	default:
		node, rep, err = restore(checkpoint.Strict)
		if err != nil && mode == "auto" && errors.Is(err, checkpoint.ErrCorrupt) {
			log.Printf("aimserver: checkpoint chain corrupt (%v); retrying in salvage mode", err)
			node, rep, err = restore(checkpoint.Salvage)
		}
	}
	if err != nil {
		arch.Close()
		return nil, nil, nil, err
	}
	fmt.Printf("aimserver: recovered %d records from %d checkpoint file(s), replayed %d archived events past LSN %d in %v\n",
		rep.Records, len(rep.Checkpoint.FilesLoaded), rep.TailEvents, rep.Watermark, rep.Duration.Round(time.Millisecond))
	if !rep.Checkpoint.Clean() {
		log.Printf("aimserver: checkpoint salvage quarantined %d file(s): %v",
			len(rep.Checkpoint.QuarantinedFiles), rep.Checkpoint.QuarantinedFiles)
	}
	return node, arch, mgr, nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		partitions = flag.Int("partitions", 0, "data partitions / RTA threads (0 = cores - esp - 2)")
		espThreads = flag.Int("esp", 1, "ESP service threads")
		bucket     = flag.Int("bucket", 3072, "ColumnMap bucket size (1 = row store)")
		full       = flag.Bool("full", false, "full 546-indicator schema (default: compact)")
		ruleCount  = flag.Int("rules", workload.DefaultRuleCount, "business rule count (0 = none)")
		statsEvery = flag.Duration("stats", 10*time.Second, "stats logging interval (0 = off)")
		debugAddr  = flag.String("debug-addr", "", "observability HTTP listen address for /metrics, /stats, /trace, /debug/pprof (\"\" = off)")

		follow        = flag.String("follow", "", "run as a follower replica: tail this primary aimserver's WAL stream (resumes from the local WAL frontier with -data-dir)")
		replHeartbeat = flag.Duration("repl-heartbeat", 25*time.Millisecond, "replication stream heartbeat interval served to subscribers")

		dataDir   = flag.String("data-dir", "", "durability directory (event archive + checkpoints; \"\" = in-memory only)")
		ckptEvery = flag.Duration("checkpoint-every", 10*time.Second, "background fuzzy-checkpoint interval (0 = no background checkpoints)")
		baseEvery = flag.Int("base-every", 8, "every Nth checkpoint is a full base (drives retention GC)")
		fsync     = flag.Bool("fsync", false, "fsync the archive after every append (durable per event, slower)")
		ckptGC    = flag.Bool("checkpoint-gc", true, "delete superseded checkpoints and truncate the archive below each base")
		recovery  = flag.String("recover", "auto", "recovery mode with -data-dir: auto, strict, or salvage")

		bucketFreeze = flag.Bool("bucket-freeze", false, "enable the tiered main: full buckets unwritten for -cold-after merge epochs freeze into immutable compressed chunks; a delta write thaws its bucket")
		coldAfter    = flag.Int("cold-after", core.DefaultColdAfterEpochs, "with -bucket-freeze: merge epochs a full bucket must go unwritten before it freezes (0 = eager, freeze after a single idle epoch)")

		overload = flag.Bool("overload", false, "enable overload protection: typed reject-with-retry-after ingest admission, delta watermarks, bounded scan admission")
	)
	flag.Parse()

	if err := crashpoint.ArmFromEnv(); err != nil {
		log.Fatalf("aimserver: %s: %v", crashpoint.EnvVar, err)
	}

	var sch *schema.Schema
	var err error
	if *full {
		sch, err = workload.BuildSchema()
	} else {
		sch, err = workload.BuildSmallSchema()
	}
	if err != nil {
		log.Fatalf("aimserver: schema: %v", err)
	}
	dims, err := workload.BuildDimensions(seed)
	if err != nil {
		log.Fatalf("aimserver: dimensions: %v", err)
	}
	var ruleSet []rules.Rule
	if *ruleCount > 0 {
		ruleSet, err = workload.BuildRules(sch, *ruleCount, seed)
		if err != nil {
			log.Fatalf("aimserver: rules: %v", err)
		}
	}

	reg := obs.NewRegistry()
	tracer := obs.NewRingTracer(4096)
	cfg := core.Config{
		Schema:     sch,
		Dims:       dims.Store,
		Partitions: *partitions,
		ESPThreads: *espThreads,
		BucketSize: *bucket,
		Factory:    dims.Factory(sch),
		Rules:      ruleSet,
		Overload:   core.OverloadConfig{Enabled: *overload},
		Metrics:    reg,
		Tracer:     tracer,
	}
	if *coldAfter < 0 {
		log.Fatalf("aimserver: -cold-after must be >= 0")
	}
	if *bucketFreeze {
		cfg.Tier = core.TierConfig{Enabled: true, ColdAfterEpochs: *coldAfter}
	}
	var node *core.StorageNode
	var arch *archive.Archive
	var mgr *checkpoint.Manager
	var ckptr *core.Checkpointer
	if *dataDir != "" {
		node, arch, mgr, err = openDurable(*dataDir, *recovery, *fsync, cfg, reg)
		if err != nil {
			log.Fatalf("aimserver: recovery: %v", err)
		}
		if *ckptEvery > 0 {
			ckptr = node.StartCheckpointer(mgr, core.CheckpointerOptions{
				Interval:  *ckptEvery,
				BaseEvery: *baseEvery,
				GC:        *ckptGC,
				OnError: func(err error) {
					if errors.Is(err, archive.ErrFailed) {
						// The WAL failed stop: exit so the restart recovers
						// from what reached disk.
						log.Fatalf("aimserver: checkpoint: %v", err)
					}
					log.Printf("aimserver: checkpoint: %v", err)
				},
			})
		}
	} else {
		node, err = core.NewNode(cfg)
		if err != nil {
			log.Fatalf("aimserver: %v", err)
		}
	}
	// Follower mode: tail the primary's WAL stream into this node via the
	// batched apply path. With -data-dir the subscription resumes from the
	// local WAL frontier, so a restarted follower re-ships only what it
	// missed; the Reopen hook redials a bounced primary from the watermark.
	var follower *repl.Follower
	if *follow != "" {
		fromLSN := uint64(0)
		if arch != nil {
			fromLSN = arch.NextLSN()
		}
		follower = repl.NewFollower(node, fromLSN, repl.FollowerConfig{
			Metrics: reg,
			Label:   *follow,
			Reopen: func(from uint64) (repl.Source, error) {
				return netproto.DialReplica(*follow, from)
			},
		})
		src, err := netproto.DialReplica(*follow, fromLSN)
		if err != nil {
			log.Fatalf("aimserver: follow %s: %v", *follow, err)
		}
		if src.StartLSN() != fromLSN {
			// The primary GC'd the log past our frontier; silently applying
			// from the clamp would hide a hole in the replica.
			log.Fatalf("aimserver: follow %s: primary log starts at LSN %d, local WAL ends at %d — gap; wipe -data-dir and re-seed",
				*follow, src.StartLSN(), fromLSN)
		}
		if err := follower.Start(src); err != nil {
			log.Fatalf("aimserver: follow %s: %v", *follow, err)
		}
		fmt.Printf("aimserver: following %s from LSN %d\n", *follow, fromLSN)
	}
	scfg := netproto.ServerConfig{
		Metrics:       netproto.NewServerMetrics(reg),
		ReplArchive:   arch, // durable servers serve the WAL stream to subscribers
		ReplHeartbeat: *replHeartbeat,
	}
	if follower != nil {
		scfg.OnPromote = func() (uint64, error) {
			sealed, err := follower.Promote()
			if err == nil {
				fmt.Printf("aimserver: promoted at LSN %d; now accepting ingest as primary\n", sealed)
			}
			return sealed, err
		}
	}
	srv, err := netproto.ServeWithConfig(*addr, node, sch, scfg)
	if err != nil {
		log.Fatalf("aimserver: listen: %v", err)
	}
	fmt.Printf("aimserver: listening on %s (%d indicators, %d B records, n=%d partitions, s=%d ESP threads, %d rules)\n",
		srv.Addr(), workload.NumIndicators(sch), sch.RecordBytes(),
		node.NumPartitions(), *espThreads, len(ruleSet))

	var dbg *obs.DebugServer
	if *debugAddr != "" {
		dbg, err = obs.Serve(*debugAddr, reg, tracer)
		if err != nil {
			log.Fatalf("aimserver: debug listen: %v", err)
		}
		fmt.Printf("aimserver: debug endpoints on http://%s/{metrics,stats,trace,debug/pprof}\n", dbg.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			var last core.NodeStats
			lastAt := time.Now()
			for range tick.C {
				// One snapshot per tick; everything below is derived from it
				// so the logged counters and rates are mutually consistent.
				st := node.Stats()
				now := time.Now()
				dt := now.Sub(lastAt).Seconds()
				if dt <= 0 {
					dt = 1
				}
				evRate := float64(st.EventsProcessed-last.EventsProcessed) / dt
				qRate := float64(st.QueriesServed-last.QueriesServed) / dt
				fmt.Printf("aimserver: records=%d events=%d (%.0f/s) queries=%d (%.1f/s) firings=%d merges=%d\n",
					st.Records, st.EventsProcessed, evRate,
					st.QueriesServed, qRate,
					st.RuleFirings, st.MergedRecords)
				last, lastAt = st, now
			}
		}()
	}
	<-stop
	// Graceful shutdown: stop accepting traffic, drain the ESP pipeline,
	// then make everything durable (final checkpoint + archive sync) before
	// the process exits — dying mid-write is what the crash harness tests,
	// not what an operator-initiated shutdown should do.
	fmt.Println("aimserver: shutting down")
	if dbg != nil {
		dbg.Close()
	}
	srv.Close()
	if follower != nil {
		follower.Stop()
	}
	if ckptr != nil {
		ckptr.Stop()
	}
	if mgr != nil {
		if err := node.FlushEvents(); err != nil {
			log.Printf("aimserver: drain: %v", err)
		}
		if err := node.Checkpoint(mgr, false); err != nil {
			log.Printf("aimserver: final checkpoint: %v", err)
		}
	}
	node.Stop()
	if arch != nil {
		if err := arch.Close(); err != nil {
			log.Printf("aimserver: archive close: %v", err)
		}
	}
	fmt.Println("aimserver: shutdown complete")
}
