package main

import (
	"errors"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/event"
)

// Coupling surface: archive.Open/Options, Archive.AppendBatch/Replay/Close.

// probeArchive measures the WAL under the run's flush policy (no per-append
// fsync): group appends of 256 events, then a replay of the whole log.
func probeArchive(f *fixture, m *metricSet) error {
	a, err := archive.Open(filepath.Join(f.dir, "probe-wal"), archive.Options{})
	if err != nil {
		return err
	}
	defer a.Close()
	const group = 256
	t0 := time.Now()
	for i := 0; i < len(f.events); i += group {
		end := i + group
		if end > len(f.events) {
			end = len(f.events)
		}
		if _, _, err := a.AppendBatch(f.events[i:end]); err != nil {
			return err
		}
	}
	m.set("archive.append_ns_per_event", perOp(time.Since(t0), len(f.events)))

	replayed := 0
	t0 = time.Now()
	err = a.Replay(0, func(uint64, event.Event) error {
		replayed++
		return nil
	})
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if replayed != len(f.events) {
		return errors.New("archive replay returned a different event count than was appended")
	}
	m.set("archive.replay_events_per_s", float64(replayed)/d.Seconds())
	return nil
}
