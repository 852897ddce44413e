package main

import (
	"errors"
	"time"

	"repro/internal/schema"
)

// Coupling surface: columnmap.New, ColumnMap.Upsert/GatherEntity/
// SetColHints/AdvanceEpoch/FreezeCold/Tier.

// probeColumnmap measures the main's merge-side write (Upsert of an
// existing record), its point read (GatherEntity), and freezing a full
// bucket into compressed chunks.
func probeColumnmap(f *fixture, m *metricSet) error {
	cm, err := f.matrix(false)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := range f.events {
		if err := cm.Upsert(f.record(&f.events[i])); err != nil {
			return err
		}
	}
	m.set("columnmap.upsert_ns_per_record", perOp(time.Since(t0), len(f.events)))

	dst := make(schema.Record, f.sch.Slots)
	t0 = time.Now()
	for i := range f.events {
		ok, err := cm.GatherEntity(f.events[i].Caller, dst)
		if err != nil || !ok {
			return errors.New("gather missed a stored entity")
		}
	}
	m.set("columnmap.gather_ns_per_record", perOp(time.Since(t0), len(f.events)))

	cm.SetColHints(f.sch.ColHints())
	cm.AdvanceEpoch()
	cm.AdvanceEpoch()
	t0 = time.Now()
	frozen := cm.FreezeCold(0, 0)
	m.set("columnmap.freeze_us_per_bucket", perOp(time.Since(t0), frozen)/1e3)
	return nil
}
