// aimbench regenerates the paper's tables and figures (see DESIGN.md §4 for
// the experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// results). It prints tables; it records and compares nothing. The repository
// benchmark — the one run/record/compare path — is e2ebench (DESIGN.md §13).
//
// Usage:
//
//	aimbench -exp all
//	aimbench -exp fig9b -duration 3s -entities 50000
//	aimbench -exp fused,ingest -metrics-dump metrics.txt
//	AIM_FULL=1 aimbench -exp kpi              # full 546-indicator schema
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

type experiment struct {
	name string
	desc string
	run  func(bench.Params) (*bench.Table, error)
}

var experiments = []experiment{
	{"kpi", "Table 4: KPI compliance under the default deployment", bench.KPICompliance},
	{"fig9a", "Fig 9a/10a: partitions (n) x bucket size", bench.Fig9a10a},
	{"fig9b", "Fig 9b/10b: clients (c) sweep, AIM vs baselines", bench.Fig9b10b},
	{"fig9c", "Fig 9c/10c: scale-out with fixed load", bench.Fig9c10c},
	{"fig11", "Fig 11: scalability, load grows with servers", bench.Fig11},
	{"esprate", "§5.1/§5.3: event-rate comparison vs baselines", bench.EventRateComparison},
	{"rules", "§4.4: rule index crossover micro-benchmark", bench.RuleIndexCrossover},
	{"bucket", "§4.5: bucket-size scan ablation", bench.BucketSizeSweep},
	{"batch", "§3.2: shared-scan batch-size ablation", bench.SharedScanBatch},
	{"fused", "§4.7: fused batch plans vs naive shared scan", bench.FusedScanMicro},
	{"cow", "§6: differential updates vs copy-on-write", bench.COWvsDelta},
	{"ingest", "batched ingest: wire batch-size sweep over TCP", bench.IngestBatchSweep},
	{"kernels", "scan & apply kernel micro: compares, masked agg, split-phase apply", bench.KernelMicro},
	{"overload", "overload sweep: admission control and shedding vs offered load", bench.OverloadSweep},
	{"chaos", "fault-tolerance drill: flaky/dead node, strict vs degraded RTA", bench.FaultTolerance},
	{"recover", "durability: recovery time vs archive tail length & checkpoint cadence", bench.RecoveryTime},
	{"replica", "replication: WAL-shipped follower, kill-the-primary failover blackout", bench.ReplicaFailover},
	{"mixed", "instrumented mixed load: freshness & latency histograms", bench.MixedWorkload},
	{"tiered", "tiered main: entities/GB and cold-scan penalty, flat vs compressed", bench.TieredSweep},
}

// Exit codes: 0 ok, 1 runtime error, 2 usage error.
func main() {
	var (
		expFlag  = flag.String("exp", "all", "experiment(s) to run: comma list, 'all' or 'list'")
		entities = flag.Uint64("entities", 0, "entities per server (overrides AIM_ENTITIES)")
		rate     = flag.Float64("rate", 0, "event rate per server (overrides AIM_RATE)")
		duration = flag.Duration("duration", 0, "measurement window per point (overrides AIM_DURATION)")
		servers  = flag.Int("servers", 0, "max servers for scale-out (overrides AIM_SERVERS)")
		full     = flag.Bool("full", false, "use the full 546-indicator schema")

		metricsDump = flag.String("metrics-dump", "", `write the Prometheus text exposition of everything the experiments measured to this file after the run ("-" = stdout)`)
	)
	flag.Parse()

	p := bench.Defaults()
	if *metricsDump != "" {
		// One shared registry across all selected experiments; systems
		// started and stopped in sequence accumulate into the same series.
		p.Metrics = obs.NewRegistry()
	}
	if *entities > 0 {
		p.Entities = *entities
	}
	if *rate > 0 {
		p.EventRate = *rate
	}
	if *duration > 0 {
		p.Duration = *duration
	}
	if *servers > 0 {
		p.MaxServers = *servers
	}
	if *full {
		p.FullSchema = true
	}

	if *expFlag == "list" {
		for _, e := range experiments {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}

	// Validate the whole selection up front: a typo inside a comma list
	// must error out listing the unmatched names, not silently run a
	// partial set.
	selected := strings.Split(*expFlag, ",")
	if *expFlag != "all" {
		var unknown []string
		for _, name := range selected {
			if !knownExperiment(name) {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "aimbench: unknown experiment(s): %s (try -exp list)\n",
				strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	schemaName := "compact (114-indicator)"
	if p.FullSchema {
		schemaName = "full (546-indicator)"
	}
	fmt.Printf("aimbench: %d entities/server, %.0f ev/s, %v/point, <=%d servers, %s schema\n",
		p.Entities, p.EventRate, p.Duration, p.MaxServers, schemaName)

	ran := 0
	start := time.Now()
	for _, e := range experiments {
		if *expFlag != "all" && !contains(selected, e.name) {
			continue
		}
		t0 := time.Now()
		tbl, err := e.run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aimbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s took %v)\n", e.name, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	fmt.Printf("\ntotal: %d experiment(s) in %v\n", ran, time.Since(start).Round(time.Millisecond))

	if *metricsDump != "" {
		out := os.Stdout
		if *metricsDump != "-" {
			f, err := os.Create(*metricsDump)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aimbench: metrics dump: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		w := bufio.NewWriter(out)
		obs.WriteMetrics(w, p.Metrics)
		w.Flush()
	}
}

func knownExperiment(name string) bool {
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
