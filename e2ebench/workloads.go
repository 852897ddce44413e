package main

import (
	"fmt"
	"time"
)

// spec is one fixed traffic mix. The parameters are frozen: BENCHMARK.json
// names the workloads and README.md records why each size was chosen.
type spec struct {
	Name string
	Why  string

	Full     bool   // -full: 546 indicators, 15 KB records
	Entities uint64 // population; the last id is reserved for the freshness prober
	DataDir  bool   // WAL + checkpoints on a fresh temp -data-dir
	Recover  bool   // end with the kill-and-recover durability check (needs DataDir)
	Flags    []string

	// Events. OpenRate > 0 sends on a schedule (ticks of openTick, the last
	// event of each tick synchronous); OpenRate == 0 is a closed loop that
	// sends Chunk events, flushes, and repeats.
	OpenRate float64
	Chunk    int
	HotSet   uint64  // ids 1..HotSet receive HotFrac of the events
	HotFrac  float64 // 0 = uniform callers

	// Queries: closed-loop Q1–Q7 clients on the one query connection.
	QueryClients int
	Think        time.Duration
}

// openTick is the open-loop pacing interval: the events due in one tick are
// sent together and the last of them is the synchronous t_ESP sample.
const openTick = 5 * time.Millisecond

// warmup runs the workload's own shape before the timed window so deltas,
// scan batches and (on hotkey_tiered) the cold tier reach steady state.
const warmup = 1500 * time.Millisecond

// probeRate is how many freshness probes the prober sends per second.
const probeRate = 20

var workloads = []spec{
	{
		Name:     "sla_mixed",
		Why:      "paper contract shape: full 546-indicator schema, open-loop events and closed-loop Q1-Q7 share both cores",
		Full:     true,
		Entities: 8_000,
		DataDir:  true,
		OpenRate: 3_000, QueryClients: 4,
	},
	{
		Name:     "ingest_saturate",
		Why:      "closed-loop event chunks saturate the ESP path (wire, WAL, apply, rules, delta); scans do little",
		Entities: 60_000,
		DataDir:  true,
		Chunk:    256, QueryClients: 1, Think: 10 * time.Millisecond,
	},
	{
		Name:     "scan_saturate",
		Why:      "8 queries in flight over a matrix far beyond LLC with an event trickle and no WAL: query, vec, columnmap do the work",
		Entities: 120_000,
		OpenRate: 500, QueryClients: 8,
	},
	{
		Name:     "hotkey_tiered",
		Why:      "95% of events on a cache-resident hot set over a frozen compressed main: coalescing, chunk kernels, per-query overhead",
		Entities: 40_000,
		DataDir:  true,
		Recover:  true,
		Flags:    []string{"-bucket", "256", "-bucket-freeze", "-cold-after", "8"},
		OpenRate: 4_000, HotSet: 1_000, HotFrac: 0.95, QueryClients: 4,
	},
}

// quickWorkload is the -quick shape go test runs: small enough to finish in
// seconds, wide enough to cross every harness code path (WAL, tiering,
// open-loop sender, prober, checks, kill-and-recover).
var quickWorkload = spec{
	Name:     "quick",
	Why:      "harness self-test",
	Entities: 2_000,
	DataDir:  true,
	Recover:  true,
	Flags:    []string{"-bucket", "64", "-bucket-freeze", "-cold-after", "8"},
	OpenRate: 2_000, HotSet: 100, HotFrac: 0.5, QueryClients: 2,
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	if name == quickWorkload.Name {
		return quickWorkload, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
