package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/schema"
)

// ingestPoint measures single-node ingest throughput over real TCP with one
// client-side coalescing setting. Rules are off and the schema is a minimal
// one-group matrix so the measurement isolates the ingest path itself
// (framing, syscalls, ESP dispatch, per-event Get/Put) — the costs batching
// amortizes — rather than indicator-maintenance work that is identical per
// event across batch sizes.
func ingestPoint(p Params, sch *schema.Schema, batch int) (evs int, rate float64, coalesced uint64, err error) {
	node, err := core.NewNode(core.Config{
		Schema:     sch,
		Partitions: p.Partitions,
		ESPThreads: p.ESPThreads,
		BucketSize: p.BucketSize,
		MaxBatch:   p.MaxBatch,
		Metrics:    p.Metrics,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer node.Stop()
	// The server applies frames as they arrive, so the client knob is the
	// only variable: batch=1 is a batch frame of one and one apply per event.
	srv, err := netproto.Serve("127.0.0.1:0", node, sch)
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()
	cli, err := netproto.DialConfig(srv.Addr(), sch, netproto.ClientConfig{
		EventBatch: batch,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer cli.Close()

	d := &esp.Driver{
		Gen:   event.NewGenerator(p.Entities, p.Seed+1),
		Rate:  0, // unthrottled: measure what the pipeline sustains
		Sink:  cli.ProcessEventAsync,
		Batch: batch,
	}
	start := time.Now()
	st, err := d.Run(p.Duration, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	// The clock stops only after every event is applied, so slow apply paths
	// cannot hide behind deep queues.
	if err := cli.FlushEvents(); err != nil {
		return 0, 0, 0, err
	}
	elapsed := time.Since(start)
	stats := node.Stats()
	if stats.EventsProcessed != uint64(st.Sent) {
		return 0, 0, 0, fmt.Errorf("bench: ingest point batch=%d: sent %d events but node processed %d",
			batch, st.Sent, stats.EventsProcessed)
	}
	return st.Sent, float64(st.Sent) / elapsed.Seconds(), stats.CoalescedPuts, nil
}

// IngestBatchSweep regenerates the batched-ingest ablation: single-node
// event throughput over TCP as the client-side wire batch grows from 1
// (a batch frame of one per event) through the default 256 to 1024.
// The speedup column is relative to batch=1.
func IngestBatchSweep(p Params) (*Table, error) {
	sch, err := schema.NewBuilder().
		AddGroup(schema.GroupSpec{Name: "calls_today", Metric: schema.MetricCount,
			Window: schema.Day(), Aggs: []schema.AggKind{schema.AggCount}}).
		Build()
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title: fmt.Sprintf("Batched ingest: wire batch sweep, 1 node over TCP (%v/point, %d entities, minimal schema, rules off)",
			p.Duration, p.Entities),
		Header: []string{"batch", "events", "ev_per_s", "speedup", "coalesced_puts"},
	}
	var base float64
	for _, batch := range []int{1, 16, 64, 256, 1024} {
		evs, rate, coalesced, err := ingestPoint(p, sch, batch)
		if err != nil {
			return nil, err
		}
		if batch == 1 {
			base = rate
		}
		speedup := 0.0
		if base > 0 {
			speedup = rate / base
		}
		tbl.AddRow(batch, evs, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2fx", speedup), coalesced)
	}
	tbl.Note("batch=1 sends one 81 B frame (a batch of one) per event; batch=N coalesces N events into one frame and one caller-grouped apply pass")
	return tbl, nil
}
