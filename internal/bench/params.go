// Package bench is the benchmark harness that regenerates the paper's
// tables and figures (§5). Every experiment is a function returning a Table
// whose rows mirror the series the paper plots; cmd/aimbench prints them and
// bench_test.go exposes them as testing.B benchmarks.
//
// Defaults are laptop-scale (the paper used 12 servers and 10–100M
// entities; see DESIGN.md §3). Environment variables scale them up:
//
//	AIM_ENTITIES  entities per storage server   (default 20000)
//	AIM_RATE      events/second per server      (default 10000)
//	AIM_DURATION  measurement window per point  (default 1.5s)
//	AIM_SERVERS   max servers for scale-out     (default 4)
//	AIM_FULL      "1" = full 546-indicator schema (default small schema)
package bench

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/workload"
)

// Params configures one experiment run.
type Params struct {
	// Entities is the subscriber population per storage server.
	Entities uint64
	// EventRate is the driven event rate per server (events/second).
	EventRate float64
	// Duration is the measurement window per data point.
	Duration time.Duration
	// Clients is the closed-loop RTA client count (the paper's c).
	Clients int
	// Partitions is n, the RTA threads / partitions per server.
	Partitions int
	// ESPThreads is s, the ESP service loops per server.
	ESPThreads int
	// BucketSize is the ColumnMap bucket size.
	BucketSize int
	// MaxBatch caps shared-scan batches.
	MaxBatch int
	// ESPQueueLen is the per-ESP-worker request queue capacity (0 = the
	// core default).
	ESPQueueLen int
	// Overload configures storage-node admission control (zero = off,
	// legacy blocking behavior).
	Overload core.OverloadConfig
	// QueryTimeout stamps RTA queries with a deadline so storage nodes can
	// evict them from scan rounds under overload (0 = no deadlines).
	QueryTimeout time.Duration
	// DegradedRTA selects the coordinator's degraded gather policy, letting
	// queries return partial coverage when nodes shed instead of failing.
	DegradedRTA bool
	// MaxServers bounds the scale-out experiments.
	MaxServers int
	// Rules is the Business Rule count.
	Rules int
	// FullSchema selects the 546-indicator schema over the compact one.
	FullSchema bool
	// Seed makes runs reproducible.
	Seed int64
	// Metrics, when set, is the shared observability registry every layer
	// of the started system registers its instruments on (per-node series
	// get {node="i"} labels). Nil keeps the system uninstrumented.
	Metrics *obs.Registry
}

// Defaults returns laptop-scale parameters, honouring the AIM_* overrides.
func Defaults() Params {
	p := Params{
		Entities:   20_000,
		EventRate:  10_000,
		Duration:   1500 * time.Millisecond,
		Clients:    8,
		Partitions: 0, // 0 = the paper's rule: cores - s - 2, floored at 1
		ESPThreads: 1,
		BucketSize: 3072,
		MaxBatch:   8,
		MaxServers: 4,
		Rules:      workload.DefaultRuleCount,
		Seed:       42,
	}
	if v, ok := envInt("AIM_ENTITIES"); ok {
		p.Entities = uint64(v)
	}
	if v, ok := envInt("AIM_RATE"); ok {
		p.EventRate = float64(v)
	}
	if v, ok := envInt("AIM_SERVERS"); ok {
		p.MaxServers = v
	}
	if v := os.Getenv("AIM_DURATION"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			p.Duration = d
		}
	}
	if os.Getenv("AIM_FULL") == "1" {
		p.FullSchema = true
	}
	return p
}

func envInt(name string) (int, bool) {
	v := os.Getenv(name)
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Workload bundles the benchmark fixtures built from Params.
type Workload struct {
	Schema *schema.Schema
	Dims   *workload.Dimensions
	Rules  []rules.Rule
}

// BuildWorkload constructs the schema, dimensions and rule set.
func BuildWorkload(p Params) (*Workload, error) {
	var sch *schema.Schema
	var err error
	if p.FullSchema {
		sch, err = workload.BuildSchema()
	} else {
		sch, err = workload.BuildSmallSchema()
	}
	if err != nil {
		return nil, fmt.Errorf("bench: schema: %w", err)
	}
	dims, err := workload.BuildDimensions(p.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: dimensions: %w", err)
	}
	var rs []rules.Rule
	if p.Rules > 0 {
		rs, err = workload.BuildRules(sch, p.Rules, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: rules: %w", err)
		}
	}
	return &Workload{Schema: sch, Dims: dims, Rules: rs}, nil
}
