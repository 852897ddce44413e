package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// FollowerConfig tunes a Follower. The zero value works.
type FollowerConfig struct {
	// Reopen, when set, re-establishes the log stream after a source
	// failure (a redial against a restarted primary). It receives the
	// follower's applied watermark so the new subscription resumes exactly
	// where the old one stopped. Nil means a source failure ends the tail
	// loop (the follower stays promotable at its watermark).
	Reopen func(fromLSN uint64) (Source, error)
	// ReopenBackoff paces reconnect attempts (default 100ms).
	ReopenBackoff time.Duration
	// Metrics, when set, registers the per-follower lag instruments
	// (aim_repl_lag_events, aim_repl_lag_seconds, staleness histogram).
	Metrics *obs.Registry
	// Label distinguishes this follower's metric series ({follower="…"}).
	Label string
}

// Follower tails a Source into its own storage node via the batched apply
// path. The node is owned by the caller (it typically has its own WAL, so a
// promoted follower is durable from the first shipped event); the follower
// owns the tail loop and the applied-LSN watermark.
type Follower struct {
	node *core.StorageNode
	cfg  FollowerConfig

	applied  atomic.Uint64 // next LSN to apply == events applied so far
	frontier atomic.Uint64 // latest observed primary next-LSN
	// lagSince is the wall clock (unix nanos) when the follower last fell
	// behind the frontier; 0 while caught up. Drives aim_repl_lag_seconds.
	lagSince atomic.Int64

	mu      sync.Mutex
	src     Source
	lastErr error
	sealed  bool
	running bool
	quit    chan struct{}
	done    chan struct{}

	met followerMetrics
}

type followerMetrics struct {
	staleness *obs.Histogram
	batches   *obs.Counter
	events    *obs.Counter
	redials   *obs.Counter
}

// NewFollower wraps node as a replica applying from fromLSN (the node's own
// archive frontier on a restart, 0 for a fresh replica).
func NewFollower(node *core.StorageNode, fromLSN uint64, cfg FollowerConfig) *Follower {
	if cfg.ReopenBackoff <= 0 {
		cfg.ReopenBackoff = 100 * time.Millisecond
	}
	f := &Follower{node: node, cfg: cfg}
	f.applied.Store(fromLSN)
	f.frontier.Store(fromLSN)
	if reg := cfg.Metrics; reg != nil {
		lbl := func(name string) string {
			if cfg.Label == "" {
				return name
			}
			return obs.Label(name, "follower", cfg.Label)
		}
		reg.GaugeFunc(lbl("aim_repl_lag_events"),
			"Replication lag in events: primary frontier minus the follower's applied LSN.",
			func() float64 { return float64(f.Lag()) })
		reg.GaugeFunc(lbl("aim_repl_lag_seconds"),
			"How long the follower has continuously been behind the frontier (0 when caught up).",
			func() float64 {
				since := f.lagSince.Load()
				if since == 0 {
					return 0
				}
				return time.Since(time.Unix(0, since)).Seconds()
			})
		f.met = followerMetrics{
			staleness: reg.LatencyHistogram(lbl("aim_repl_staleness_seconds"),
				"Replica staleness per applied batch: follower apply time minus primary batch-cut time (t_fresh for replica reads)."),
			batches: reg.Counter(lbl("aim_repl_batches_total"),
				"Log batches applied by the follower (heartbeats excluded)."),
			events: reg.Counter(lbl("aim_repl_events_total"),
				"Events applied by the follower."),
			redials: reg.Counter(lbl("aim_repl_reconnects_total"),
				"Log-stream reconnects after a source failure."),
		}
	}
	return f
}

// Node returns the follower's storage node (the scan-serving handle, and
// the handle a promotion re-points ingest at).
func (f *Follower) Node() *core.StorageNode { return f.node }

// AppliedLSN is the watermark: every event below it is durably logged on
// the follower and handed to its ESP workers.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// Frontier is the latest primary next-LSN the follower has observed.
func (f *Follower) Frontier() uint64 { return f.frontier.Load() }

// Lag is the follower's replication lag in events.
func (f *Follower) Lag() uint64 {
	fr, ap := f.frontier.Load(), f.applied.Load()
	if fr <= ap {
		return 0
	}
	return fr - ap
}

// Err returns the error that ended the tail loop, if any.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// Running reports whether the tail loop is live (applying or reconnecting).
func (f *Follower) Running() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.running
}

// Sealed reports whether the follower's replay has been sealed by Promote.
func (f *Follower) Sealed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sealed
}

// Start begins tailing src. The subscription must have been opened at the
// follower's applied watermark.
func (f *Follower) Start(src Source) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed {
		return errors.New("repl: follower already promoted")
	}
	if f.running {
		return errors.New("repl: follower already tailing")
	}
	f.src = src
	f.lastErr = nil
	f.running = true
	f.quit = make(chan struct{})
	f.done = make(chan struct{})
	go f.run(src, f.quit, f.done)
	return nil
}

func (f *Follower) run(src Source, quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	defer func() {
		f.mu.Lock()
		f.running = false
		f.mu.Unlock()
	}()
	for {
		select {
		case <-quit:
			return
		default:
		}
		b, err := src.Next()
		if err != nil {
			select {
			case <-quit:
				return
			default:
			}
			src = f.reopen(quit, err)
			if src == nil {
				return
			}
			continue
		}
		if err := f.apply(b); err != nil {
			f.fail(err)
			return
		}
	}
}

// reopen re-establishes the stream after cause, honoring Reopen/backoff.
// Nil means the loop should end (no reopen policy, or the follower is
// stopping).
func (f *Follower) reopen(quit <-chan struct{}, cause error) Source {
	if f.cfg.Reopen == nil {
		f.fail(cause)
		return nil
	}
	for {
		select {
		case <-quit:
			return nil
		case <-time.After(f.cfg.ReopenBackoff):
		}
		src, err := f.cfg.Reopen(f.applied.Load())
		if err != nil {
			continue
		}
		f.met.redials.Inc()
		f.mu.Lock()
		f.src = src
		f.mu.Unlock()
		return src
	}
}

func (f *Follower) fail(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// apply folds one shipped batch into the node and advances the watermark.
func (f *Follower) apply(b Batch) error {
	applied := f.applied.Load()
	evs := b.Events
	if len(evs) > 0 {
		if b.FirstLSN > applied {
			return fmt.Errorf("%w: batch starts at lsn %d, applied watermark is %d", ErrGap, b.FirstLSN, applied)
		}
		if skip := applied - b.FirstLSN; skip > 0 {
			// Overlap after a resubscription: the prefix is already applied.
			if skip >= uint64(len(evs)) {
				evs = nil
			} else {
				evs = evs[skip:]
			}
		}
	}
	if len(evs) > 0 {
		if err := f.node.ProcessEventBatch(evs); err != nil {
			return fmt.Errorf("repl: follower apply at lsn %d: %w", applied, err)
		}
		applied += uint64(len(evs))
		f.applied.Store(applied)
		f.met.batches.Inc()
		f.met.events.Add(uint64(len(evs)))
		f.met.staleness.ObserveSince(b.Origin)
	}
	if b.Frontier > f.frontier.Load() {
		f.frontier.Store(b.Frontier)
	}
	if applied >= f.frontier.Load() {
		f.lagSince.Store(0)
	} else if f.lagSince.Load() == 0 {
		f.lagSince.Store(time.Now().UnixNano())
	}
	return nil
}

// stopTail ends the tail loop and waits for it.
func (f *Follower) stopTail() {
	f.mu.Lock()
	quit, done, src := f.quit, f.done, f.src
	if quit != nil {
		select {
		case <-quit:
		default:
			close(quit)
		}
	}
	f.mu.Unlock()
	if src != nil {
		_ = src.Close() // unblock a pending Next
	}
	if done != nil {
		<-done
	}
}

// Stop ends the tail loop without sealing (shutdown). The node keeps
// running; the caller owns stopping it.
func (f *Follower) Stop() { f.stopTail() }

// Promote seals the follower's replay at its watermark: the tail loop is
// stopped, everything already applied is drained through the ESP workers,
// and the sealed watermark is returned. After Promote the node's state is
// exactly the primary's WAL prefix [0, sealed) — the caller (the cluster's
// promotion state machine) tops it up with the dead primary's surviving WAL
// suffix and re-points ingest at Node(). Idempotent: a second Promote
// returns the same watermark.
func (f *Follower) Promote() (uint64, error) {
	f.stopTail()
	f.mu.Lock()
	already := f.sealed
	f.sealed = true
	f.mu.Unlock()
	if !already {
		if err := f.node.FlushEvents(); err != nil {
			return f.applied.Load(), fmt.Errorf("repl: promote drain: %w", err)
		}
	}
	return f.applied.Load(), nil
}
