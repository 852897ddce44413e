package main

import (
	"time"

	"repro/internal/schema"
)

// Coupling surface: schema.Schema.ApplyIngest/MaterializeDirty/GroupMaskWords.

// probeSchema measures the two phases of UPDATE_MATRIX on the workload's
// records: the ingest of an event into the window primitives, and the
// materialization of the aggregates it dirtied.
func probeSchema(f *fixture, m *metricSet) error {
	recs := make([]schema.Record, len(f.records))
	for i, r := range f.records {
		recs[i] = r.Clone()
	}
	dirty := make([]uint64, f.sch.GroupMaskWords())
	var ingest, materialize time.Duration
	for i := range f.events {
		ev := &f.events[i]
		rec := recs[ev.Caller-1]
		t0 := time.Now()
		f.sch.ApplyIngest(rec, ev, dirty)
		t1 := time.Now()
		f.sch.MaterializeDirty(rec, dirty, nil)
		t2 := time.Now()
		ingest += t1.Sub(t0)
		materialize += t2.Sub(t1)
	}
	m.set("schema.ingest_ns_per_event", perOp(ingest, len(f.events)))
	m.set("schema.materialize_ns_per_event", perOp(materialize, len(f.events)))
	return nil
}
