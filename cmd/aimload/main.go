// aimload drives the Huawei benchmark against one or more aimserver
// instances: a fixed-rate CDR stream through the ESP router and/or
// closed-loop RTA clients issuing the Q1–Q7 mix, reporting end-to-end
// throughput and latency like the paper's dedicated driver machines (§5.1).
//
// Usage:
//
//	aimload -servers 127.0.0.1:7070,127.0.0.1:7071 -rate 10000 -clients 8 -duration 30s
//	aimload -servers 127.0.0.1:7070 -clients 0 -rate 100000   # ESP only
//	aimload -servers 127.0.0.1:7070 -rate 0 -clients 16       # RTA only
//
// Schema flags must match the servers'.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/rta"
	"repro/internal/schema"
	"repro/internal/workload"
)

func main() {
	var (
		servers  = flag.String("servers", "127.0.0.1:7070", "comma-separated aimserver addresses")
		entities = flag.Uint64("entities", 20_000, "subscriber population")
		rate     = flag.Float64("rate", 10_000, "event rate (events/second, 0 = no events)")
		clients  = flag.Int("clients", 8, "closed-loop RTA clients (0 = no queries)")
		duration = flag.Duration("duration", 10*time.Second, "measurement window")
		preload  = flag.Bool("preload", true, "materialize every entity with one event first")
		full     = flag.Bool("full", false, "full 546-indicator schema (must match servers)")
		seed     = flag.Int64("seed", 42, "workload seed")

		degraded = flag.Bool("degraded", false, "tolerate node failures: accept incomplete RTA results")

		queryDeadline = flag.Duration("query-deadline", 0, "per-query deadline stamped on every RTA query; past-deadline queries are shed server-side (0 = none, implies -degraded semantics for shed partials)")

		ingestBatch = flag.Int("ingest-batch", 256, "coalesce outgoing events client-side into wire batches of up to N events, flushed after at most 1ms (0 or 1 = one frame per event)")

		metricsDump = flag.String("metrics-dump", "", `after the run, dump metrics: "local" = this process's client-side registry (Prometheus text on stdout); anything else = a server -debug-addr to fetch /metrics from`)

		promote = flag.String("promote", "", "one-shot: tell this follower aimserver to promote itself (seal its replay and accept ingest), print the sealed LSN, and exit")
	)
	flag.Parse()

	var sch *schema.Schema
	var err error
	if *full {
		sch, err = workload.BuildSchema()
	} else {
		sch, err = workload.BuildSmallSchema()
	}
	if err != nil {
		log.Fatalf("aimload: schema: %v", err)
	}

	// Manual failover: one promote RPC, no load.
	if *promote != "" {
		cli, err := netproto.Dial(*promote, sch)
		if err != nil {
			log.Fatalf("aimload: dial %s: %v", *promote, err)
		}
		defer cli.Close()
		sealed, err := cli.Promote()
		if err != nil {
			log.Fatalf("aimload: promote %s: %v", *promote, err)
		}
		fmt.Printf("aimload: %s promoted, sealed at LSN %d\n", *promote, sealed)
		return
	}

	// The load driver keeps its own registry for the client side of the
	// wire: RPC latencies, retries, reconnects, breaker states and the
	// coordinator's end-to-end query latency.
	reg := obs.NewRegistry()
	var handles []core.Storage
	var conns []*netproto.Client
	ccfg := netproto.ClientConfig{
		Metrics:    netproto.NewClientMetrics(reg, nil),
		EventBatch: *ingestBatch,
	}
	for _, addr := range strings.Split(*servers, ",") {
		cli, err := netproto.DialConfig(strings.TrimSpace(addr), sch, ccfg)
		if err != nil {
			log.Fatalf("aimload: dial %s: %v", addr, err)
		}
		defer cli.Close()
		conns = append(conns, cli)
		handles = append(handles, cli)
	}
	cl, err := cluster.New(handles)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	cl.Instrument(reg)
	router := esp.NewRouter(cl)

	if *preload {
		fmt.Printf("aimload: preloading %d entities ...\n", *entities)
		gen := event.NewGenerator(*entities, *seed)
		var ev event.Event
		for e := uint64(1); e <= *entities; e++ {
			gen.NextFor(&ev, e)
			if err := router.Ingest(ev); err != nil {
				log.Fatalf("aimload: preload: %v", err)
			}
		}
		if err := router.Flush(); err != nil {
			log.Fatalf("aimload: preload flush: %v", err)
		}
	}

	var wg sync.WaitGroup
	var espStats esp.DriverStats
	if *rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &esp.Driver{
				Gen:   event.NewGenerator(*entities, *seed+1),
				Rate:  *rate,
				Sink:  router.Ingest,
				Batch: *ingestBatch,
			}
			var err error
			espStats, err = d.Run(*duration, 0)
			if err != nil {
				log.Printf("aimload: driver: %v", err)
			}
			if err := router.Flush(); err != nil {
				log.Printf("aimload: flush: %v", err)
			}
		}()
	}

	var rtaStats rta.ClientStats
	if *clients > 0 {
		rcfg := rta.Config{Metrics: rta.NewMetrics(reg), QueryTimeout: *queryDeadline}
		if *degraded || *queryDeadline > 0 {
			rcfg.Policy = rta.PolicyDegraded
		}
		coord, err := rta.NewCoordinatorConfig(cl.Nodes(), rcfg)
		if err != nil {
			log.Fatal(err)
		}
		sources := make([]rta.QuerySource, *clients)
		for i := range sources {
			g, err := workload.NewQueryGen(sch, *seed+int64(i)+100)
			if err != nil {
				log.Fatal(err)
			}
			sources[i] = g
		}
		rtaStats = rta.RunClosedLoop(coord, sources, *duration)
	}
	wg.Wait()

	fmt.Printf("\naimload results (%v window, %d servers):\n", *duration, len(handles))
	if *rate > 0 {
		fmt.Printf("  ESP: %d events, %.0f ev/s achieved (target %.0f)\n",
			espStats.Sent, espStats.AchievedRate, *rate)
	}
	if *clients > 0 {
		fmt.Printf("  RTA: %d queries, %.0f q/s, mean %.2fms, p95 %.2fms, max %.2fms, %d errors\n",
			rtaStats.Queries, rtaStats.Throughput,
			float64(rtaStats.MeanLatency.Microseconds())/1000,
			float64(rtaStats.P95Latency.Microseconds())/1000,
			float64(rtaStats.MaxLatency.Microseconds())/1000,
			rtaStats.Errors)
	}
	var reconnects uint64
	for _, c := range conns {
		reconnects += c.Reconnects()
	}
	if reconnects > 0 {
		fmt.Printf("  net: %d reconnect(s) during the run\n", reconnects)
	}

	switch *metricsDump {
	case "":
	case "local":
		fmt.Println()
		w := bufio.NewWriter(os.Stdout)
		obs.WriteMetrics(w, reg)
		w.Flush()
	default:
		url := "http://" + *metricsDump + "/metrics"
		resp, err := http.Get(url)
		if err != nil {
			log.Fatalf("aimload: metrics dump %s: %v", url, err)
		}
		fmt.Println()
		io.Copy(os.Stdout, resp.Body)
		resp.Body.Close()
	}
}
