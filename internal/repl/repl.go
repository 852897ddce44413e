// Package repl implements WAL log-shipping replication: a follower replica
// tails the primary's event archive — in process or over the netproto wire
// — and applies the stream into its own delta/main through the batched
// ingest path, exposing an applied-LSN watermark.
//
// The shape follows PolarDB-IMCI (PAPERS.md): the primary absorbs writes
// and ships its redo stream; in-memory column replicas serve analytics.
// The paper's single-node AIM design has no availability story — this
// package, together with the cluster's promotion state machine, adds one:
// RTA scans fan out to freshness-bounded followers, and when a primary
// dies the most-caught-up follower is sealed at its watermark, topped up
// from the dead primary's surviving WAL suffix, and promoted.
package repl

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/event"
)

// Batch is one shipped chunk of the primary's log.
type Batch struct {
	// FirstLSN is the LSN of Events[0].
	FirstLSN uint64
	// Frontier is the primary's next-LSN when the batch was cut; the
	// follower's lag is Frontier minus its applied watermark.
	Frontier uint64
	// Origin is the primary's wall clock when the batch was cut, feeding
	// the t_fresh-style replica staleness histogram.
	Origin time.Time
	// Events is empty for a pure heartbeat (a frontier/liveness update).
	Events []event.Event
}

// ErrSourceClosed is returned by Next after Close.
var ErrSourceClosed = errors.New("repl: source closed")

// ErrGap reports a log-shipping discontinuity: the source delivered a batch
// starting past the follower's applied watermark, so events are missing and
// the replica can no longer be trusted (it must be rebuilt or re-seeded).
var ErrGap = errors.New("repl: log stream gap")

// Source is a follower's view of the primary's log. Next blocks until
// events past the subscription cursor are committed, returning at the
// latest after the source's heartbeat interval with an empty batch carrying
// a fresh frontier. Implementations: ArchiveSource (in-process tailing) and
// netproto.DialReplica (the wire protocol's subscribe-from-LSN stream).
type Source interface {
	Next() (Batch, error)
	Close() error
}

// archivePoll is how often an idle ArchiveSource re-checks the archive.
const archivePoll = time.Millisecond

// ArchiveSourceConfig tunes an ArchiveSource. The zero value selects the
// defaults.
type ArchiveSourceConfig struct {
	// MaxEvents bounds one batch (default 512).
	MaxEvents int
	// Heartbeat bounds how long Next blocks without news (default 25ms).
	Heartbeat time.Duration
}

func (cfg ArchiveSourceConfig) withDefaults() ArchiveSourceConfig {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 512
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 25 * time.Millisecond
	}
	return cfg
}

// ArchiveSource tails a live archive in process — the shipping path when
// follower and primary share an address space (tests, benches, and the
// cluster's local deployments), and the building block the netproto server
// uses to feed remote subscribers.
type ArchiveSource struct {
	a      *archive.Archive
	cursor uint64
	cfg    ArchiveSourceConfig
	quit   chan struct{}
}

// NewArchiveSource subscribes to a starting at fromLSN.
func NewArchiveSource(a *archive.Archive, fromLSN uint64, cfg ArchiveSourceConfig) *ArchiveSource {
	return &ArchiveSource{a: a, cursor: fromLSN, cfg: cfg.withDefaults(), quit: make(chan struct{})}
}

// Next returns the next committed chunk, or a heartbeat when the archive
// stays quiet for the heartbeat interval.
func (s *ArchiveSource) Next() (Batch, error) {
	deadline := time.Now().Add(s.cfg.Heartbeat)
	for {
		select {
		case <-s.quit:
			return Batch{}, ErrSourceClosed
		default:
		}
		evs, frontier, err := s.a.ReadFrom(s.cursor, s.cfg.MaxEvents)
		if err != nil {
			return Batch{}, err
		}
		if len(evs) > 0 {
			b := Batch{FirstLSN: s.cursor, Frontier: frontier, Origin: time.Now(), Events: evs}
			s.cursor += uint64(len(evs))
			return b, nil
		}
		if !time.Now().Before(deadline) {
			return Batch{FirstLSN: s.cursor, Frontier: frontier, Origin: time.Now()}, nil
		}
		select {
		case <-s.quit:
			return Batch{}, ErrSourceClosed
		case <-time.After(archivePoll):
		}
	}
}

// Close unblocks a pending Next and ends the subscription.
func (s *ArchiveSource) Close() error {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	return nil
}

// ReplayArchiveTail feeds every committed event at/after fromLSN to emit in
// LSN-ordered batches of at most batch events — the promotion top-up path:
// a sealed follower is brought level with the dead primary's surviving
// (salvaged) WAL before ingest re-points at it. Unlike a Source it
// terminates at the frontier instead of waiting for more.
func ReplayArchiveTail(a *archive.Archive, fromLSN uint64, batch int, emit func(evs []event.Event) error) error {
	if batch <= 0 {
		batch = 256
	}
	cursor := fromLSN
	for {
		evs, _, err := a.ReadFrom(cursor, batch)
		if err != nil {
			return fmt.Errorf("repl: tail replay at lsn %d: %w", cursor, err)
		}
		if len(evs) == 0 {
			return nil
		}
		if err := emit(evs); err != nil {
			return err
		}
		cursor += uint64(len(evs))
	}
}
