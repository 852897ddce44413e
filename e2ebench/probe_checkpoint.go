package main

import (
	"errors"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
)

// Coupling surface: checkpoint.NewManager, Manager.Create/Load, Writer.Add/
// Bytes/Close.

// probeCheckpoint measures writing the probe matrix as one full base
// checkpoint (seal and fsync included) and loading it back.
func probeCheckpoint(f *fixture, m *metricSet) error {
	mgr, err := checkpoint.NewManager(filepath.Join(f.dir, "probe-ckpt"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	w, err := mgr.Create(f.sch.Slots, 1, true)
	if err != nil {
		return err
	}
	for _, rec := range f.records {
		if err := w.Add(rec); err != nil {
			w.Abort()
			return err
		}
	}
	mb := float64(w.Bytes()) / (1 << 20)
	if err := w.Close(); err != nil {
		return err
	}
	m.set("checkpoint.write_mb_per_s", mb/time.Since(t0).Seconds())

	t0 = time.Now()
	recs, _, err := mgr.Load(f.sch.Slots)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if len(recs) != len(f.records) {
		return errors.New("checkpoint load returned a different record count than was written")
	}
	m.set("checkpoint.load_mb_per_s", mb/d.Seconds())
	return nil
}
