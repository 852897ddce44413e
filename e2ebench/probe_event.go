package main

import (
	"errors"
	"time"

	"repro/internal/event"
)

// Coupling surface: event.Event.Encode/Decode, event.WireSize.

// probeEvent measures the wire codec: encode plus decode of one CDR.
func probeEvent(f *fixture, m *metricSet) error {
	const rounds = 10
	var buf [event.WireSize]byte
	var out event.Event
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range f.events {
			f.events[i].Encode(buf[:])
			if err := out.Decode(buf[:]); err != nil {
				return err
			}
		}
	}
	d := time.Since(t0)
	if last := f.events[len(f.events)-1]; out != last {
		return errors.New("event codec round trip changed the event")
	}
	m.set("event.codec_ns_per_event", perOp(d, rounds*len(f.events)))
	return nil
}
