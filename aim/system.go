package aim

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/rta"
)

// Options configures a System. Only Schema is required; the defaults follow
// the paper's single-server setup (1 storage server, n = 5 partitions,
// s = 1 ESP thread, query batches of 8).
type Options struct {
	// Schema is the Analytics-Matrix schema (required).
	Schema *Schema
	// Dimensions holds dimension tables replicated at every server.
	Dimensions *DimensionStore
	// Servers is the number of storage servers (default 1).
	Servers int
	// PartitionsPerServer is n (default 5).
	PartitionsPerServer int
	// BucketSize tunes the ColumnMap (default 3072; 1 = row store).
	BucketSize int
	// Rules is the Business Rule set, replicated at every server.
	Rules []Rule
	// OnFiring receives rule firings; must be cheap and thread-safe.
	OnFiring func(Firing)
	// Factory creates Entity Records for unseen entities (segmentation
	// attributes). Defaults to zeroed records.
	Factory func(uint64) Record
	// FreshnessPause bounds how long the system idles between merge
	// rounds when no queries arrive (default 500µs).
	FreshnessPause time.Duration
}

// System is a running AIM deployment: storage servers, ESP routing and an
// RTA coordinator, all in-process.
type System struct {
	nodes   []*core.StorageNode
	cluster *cluster.Cluster
	router  *esp.Router
	coord   *rta.Coordinator
	nextQID atomic.Uint64
	closed  atomic.Bool
}

// Start boots a System.
func Start(opts Options) (*System, error) {
	if opts.Schema == nil {
		return nil, errors.New("aim: Options.Schema is required")
	}
	servers := opts.Servers
	if servers <= 0 {
		servers = 1
	}
	cfg := core.Config{
		Schema:         opts.Schema,
		Dims:           opts.Dimensions,
		Partitions:     opts.PartitionsPerServer,
		BucketSize:     opts.BucketSize,
		Factory:        opts.Factory,
		Rules:          opts.Rules,
		OnFiring:       opts.OnFiring,
		IdleMergePause: opts.FreshnessPause,
	}
	cl, nodes, err := cluster.NewLocal(servers, cfg)
	if err != nil {
		return nil, err
	}
	coord, err := rta.NewCoordinator(cl.Nodes())
	if err != nil {
		for _, n := range nodes {
			n.Stop()
		}
		return nil, err
	}
	return &System{
		nodes:   nodes,
		cluster: cl,
		router:  esp.NewRouter(cl),
		coord:   coord,
	}, nil
}

// Ingest routes one event to the ESP subsystem asynchronously.
func (s *System) Ingest(ev Event) error { return s.router.Ingest(ev) }

// IngestSync processes one event synchronously and returns the number of
// Business Rules it fired.
func (s *System) IngestSync(ev Event) (int, error) { return s.router.IngestSync(ev) }

// Flush blocks until all ingested events are applied to the Analytics
// Matrix.
func (s *System) Flush() error { return s.router.Flush() }

// Execute runs one ad-hoc RTA query across all storage servers and returns
// the merged, finalized result.
func (s *System) Execute(q *Query) (*Result, error) {
	// Assign a fresh id without mutating the caller's query.
	qq := *q
	qq.ID = s.nextQID.Add(1)
	return s.coord.Execute(&qq)
}

// Get returns a copy of an Entity Record and its modification version.
func (s *System) Get(entityID uint64) (Record, uint64, bool, error) {
	return s.cluster.Get(entityID)
}

// Put stores an Entity Record unconditionally.
func (s *System) Put(rec Record) error { return s.cluster.Put(rec) }

// ConditionalPut stores an Entity Record if its version still matches; it
// returns ErrVersionConflict otherwise.
func (s *System) ConditionalPut(rec Record, expected uint64) error {
	return s.cluster.ConditionalPut(rec, expected)
}

// Stats returns a counter snapshot per storage server.
func (s *System) Stats() []NodeStats {
	out := make([]NodeStats, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.Stats()
	}
	return out
}

// Close shuts every storage server down (and the cluster's background
// event-replay drainer, if it ever started).
func (s *System) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.cluster.Close()
	for _, n := range s.nodes {
		n.Stop()
	}
}
