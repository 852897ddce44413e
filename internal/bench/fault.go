package bench

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/query"
	"repro/internal/rta"
	"repro/internal/schema"
)

// FaultTolerance is the chaos drill (beyond the paper, which assumes a
// lossless Infiniband fabric): 3 TCP storage servers with faults injected
// on one node's links — resets, delays, then full dial refusal — measuring
// what the ESP pipeline and the strict vs. degraded RTA gather policies
// deliver in each phase, and that the cluster converges after healing.
func FaultTolerance(p Params) (*Table, error) {
	sch, err := schema.NewBuilder().
		AddGroup(schema.GroupSpec{Name: "calls_today", Metric: schema.MetricCount,
			Window: schema.Day(), Aggs: []schema.AggKind{schema.AggCount}}).
		Build()
	if err != nil {
		return nil, err
	}
	plan := netproto.NewFaultPlan()

	var nodes []*core.StorageNode
	var servers []*netproto.Server
	var clients []*netproto.Client
	var handles []core.Storage
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for i := 0; i < 3; i++ {
		node, err := core.NewNode(core.Config{
			Schema: sch, Partitions: 2, BucketSize: p.BucketSize,
			IdleMergePause: 200 * time.Microsecond,
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
		srv, err := netproto.Serve("127.0.0.1:0", node, sch)
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		cfg := netproto.ClientConfig{
			CallTimeout: time.Second,
			MaxRetries:  4,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
		}
		if i == 0 {
			cfg.Dialer = plan.Dialer()
		}
		cli, err := netproto.DialConfig(srv.Addr(), sch, cfg)
		if err != nil {
			return nil, err
		}
		clients = append(clients, cli)
		handles = append(handles, cli)
	}
	cl, err := cluster.NewWithHealth(handles, cluster.HealthConfig{
		FailureThreshold: 3, ProbeInterval: 20 * time.Millisecond,
		RetryQueue: 1 << 16, RetryInterval: 5 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	strict, err := rta.NewCoordinator(handles)
	if err != nil {
		return nil, err
	}
	degraded, err := rta.NewCoordinatorConfig(handles, rta.Config{Policy: rta.PolicyDegraded})
	if err != nil {
		return nil, err
	}
	calls := sch.MustAttrIndex("calls_today_count")
	var qid uint64
	nextQuery := func() *query.Query {
		qid++
		return &query.Query{ID: qid, Aggs: []query.AggExpr{{Op: query.OpSum, Attr: calls}}, GroupBy: -1}
	}

	window := p.Duration / 4
	if window < 200*time.Millisecond {
		window = 200 * time.Millisecond
	}
	phases := []struct {
		name  string
		apply func()
	}{
		{"healthy", func() { plan.Heal() }},
		{"flaky", func() { plan.SetResetEvery(3); plan.SetReadDelay(time.Millisecond); plan.ResetAll() }},
		{"dead", func() { plan.Heal(); plan.SetFailDial(true); plan.ResetAll() }},
		{"healed", func() { plan.Heal() }},
	}

	tbl := &Table{
		Title:  "Fault tolerance: 1 of 3 TCP nodes faulty (window " + window.String() + "/phase)",
		Header: []string{"phase", "ev_sent", "ev_refused", "strict_ok", "strict_err", "deg_ok", "deg_partial", "deg_err", "deg_p95_ms"},
	}

	totalSent := 0
	for _, ph := range phases {
		ph.apply()
		var sent, refused int
		var strictOK, strictErr, degOK, degPartial, degErr int
		var lats []time.Duration
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			// A small event burst through the router path...
			for i := 0; i < 64; i++ {
				ev := event.Event{
					Caller:    uint64(totalSent%997) + 1,
					Timestamp: 100*24*3600*1000 + int64(totalSent),
					Duration:  5, Cost: 1,
				}
				if err := cl.ProcessEventAsync(ev); err != nil {
					refused++
				} else {
					sent++
				}
				totalSent++
			}
			// ...then one query under each policy.
			if _, err := strict.Execute(nextQuery()); err != nil {
				strictErr++
			} else {
				strictOK++
			}
			t0 := time.Now()
			res, err := degraded.Execute(nextQuery())
			lats = append(lats, time.Since(t0))
			switch {
			case err != nil:
				degErr++
			case res.Incomplete:
				degPartial++
			default:
				degOK++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var p95 float64
		if len(lats) > 0 {
			p95 = float64(lats[(len(lats)*95)/100].Microseconds()) / 1000
		}
		tbl.AddRow(ph.name, sent, refused, strictOK, strictErr, degOK, degPartial, degErr, p95)
	}

	// Convergence: after healing, every accepted event must land.
	plan.Heal()
	flushDeadline := time.Now().Add(30 * time.Second)
	for {
		err := cl.FlushEvents()
		if err == nil {
			break
		}
		if time.Now().After(flushDeadline) {
			return nil, fmt.Errorf("bench: cluster never recovered after heal: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var processed uint64
	for _, n := range nodes {
		processed += n.Stats().EventsProcessed
	}
	h := cl.Health(0)
	tbl.Note("after heal: %d/%d accepted events processed (spilled %d, replayed %d)",
		processed, totalSent, h.Spilled, h.Replayed)
	if processed != uint64(totalSent) {
		return nil, errors.New("bench: event loss after heal")
	}
	return tbl, nil
}
