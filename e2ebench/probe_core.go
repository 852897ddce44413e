package main

import (
	"path/filepath"
	"slices"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/rules"
	"repro/internal/schema"
)

// Coupling surface: core.NewPartition, Partition.ApplyEvent/ApplyEventBatch/
// MergeStep/EnableTiering, core.TierConfig, core.NewNode/Config,
// StorageNode.ProcessEventBatch/FlushEvents/Stop, schema.GroupSetForAttrs,
// rules.Engine.ReadAttrs.

// ingestGroup is the batch size the probes hand the core: the client's wire
// batch, which is what one ESP-worker request carries.
const ingestGroup = eventBatchLimit

func (f *fixture) tierConfig() core.TierConfig {
	return core.TierConfig{Enabled: f.tiered, ColdAfterEpochs: f.coldAfter}
}

// probeCore measures the storage node without a wire: the ESP worker's
// batched apply with rules on (caller-sorted runs through
// Partition.ApplyEventBatch, as espWorker.handleBatch does), the merge of
// each batch into the main, and a whole StorageNode ingesting batches.
func probeCore(f *fixture, m *metricSet) error {
	eng, err := rules.NewEngine(f.sch, f.rules, false)
	if err != nil {
		return err
	}
	ruleGroups := f.sch.GroupSetForAttrs(eng.ReadAttrs())
	p := core.NewPartition(f.sch, f.bucket, f.factory)
	if f.tiered {
		p.EnableTiering(f.tierConfig())
	}
	for i := range f.preload {
		p.ApplyEvent(&f.preload[i])
	}
	p.MergeStep()
	onApply := func(ev *event.Event, rec schema.Record) { eng.Evaluate(ev, rec) }
	var apply, merge time.Duration
	merged := 0
	for i := 0; i < len(f.events); i += ingestGroup {
		batch := slices.Clone(f.events[i:min(i+ingestGroup, len(f.events))])
		t0 := time.Now()
		slices.SortStableFunc(batch, func(a, b event.Event) int {
			switch {
			case a.Caller < b.Caller:
				return -1
			case a.Caller > b.Caller:
				return 1
			}
			return 0
		})
		for lo := 0; lo < len(batch); {
			hi := lo + 1
			for hi < len(batch) && batch[hi].Caller == batch[lo].Caller {
				hi++
			}
			p.ApplyEventBatch(batch[lo:hi], ruleGroups, onApply)
			lo = hi
		}
		t1 := time.Now()
		merged += p.MergeStep()
		apply += t1.Sub(t0)
		merge += time.Since(t1)
	}
	m.set("core.apply_ns_per_event", perOp(apply, len(f.events)))
	m.set("core.merge_ns_per_record", perOp(merge, merged))

	cfg := core.Config{
		Schema: f.sch, Dims: f.dims.Store, Partitions: 2, ESPThreads: 1,
		BucketSize: f.bucket, Factory: f.factory, Rules: f.rules, Tier: f.tierConfig(),
	}
	if f.w.DataDir {
		arch, err := archive.Open(filepath.Join(f.dir, "probe-node-wal"), archive.Options{})
		if err != nil {
			return err
		}
		defer arch.Close()
		cfg.Archive = arch
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		return err
	}
	defer node.Stop()
	if err := node.ProcessEventBatch(slices.Clone(f.preload)); err != nil {
		return err
	}
	if err := node.FlushEvents(); err != nil {
		return err
	}
	var groups [][]event.Event
	for i := 0; i < len(f.events); i += ingestGroup {
		groups = append(groups, slices.Clone(f.events[i:min(i+ingestGroup, len(f.events))]))
	}
	t0 := time.Now()
	for _, g := range groups {
		if err := node.ProcessEventBatch(g); err != nil {
			return err
		}
	}
	if err := node.FlushEvents(); err != nil {
		return err
	}
	m.set("core.node_events_per_s", float64(len(f.events))/time.Since(t0).Seconds())
	return nil
}
