package main

import (
	"errors"
	"time"

	"repro/internal/delta"
	"repro/internal/schema"
)

// Coupling surface: delta.New, delta.Delta.Put/Get/Reset.

// probeDelta measures the delta's copy-in Put and copy-out Get of the
// workload's records, with a reset every 4096 Puts like a delta switch.
func probeDelta(f *fixture, m *metricSet) error {
	d := delta.New(1024)
	dst := make(schema.Record, f.sch.Slots)
	var put, get time.Duration
	hits := 0
	for i := range f.events {
		ev := &f.events[i]
		rec := f.record(ev)
		t0 := time.Now()
		d.Put(ev.Caller, rec)
		t1 := time.Now()
		if d.Get(ev.Caller, dst) {
			hits++
		}
		t2 := time.Now()
		put += t1.Sub(t0)
		get += t2.Sub(t1)
		if i%4096 == 4095 {
			d.Reset()
		}
	}
	if hits != len(f.events) {
		return errors.New("delta lost a record it was just given")
	}
	m.set("delta.put_ns", perOp(put, len(f.events)))
	m.set("delta.get_ns", perOp(get, len(f.events)))
	return nil
}
