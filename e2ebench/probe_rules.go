package main

import (
	"time"

	"repro/internal/rules"
)

// Coupling surface: rules.NewEngine, rules.Engine.Evaluate.

// probeRules measures evaluating the 300-rule set against one event and its
// record (Algorithm 2, no index, as the server runs it).
func probeRules(f *fixture, m *metricSet) error {
	eng, err := rules.NewEngine(f.sch, f.rules, false)
	if err != nil {
		return err
	}
	firings := 0
	t0 := time.Now()
	for i := range f.events {
		ev := &f.events[i]
		firings += len(eng.Evaluate(ev, f.record(ev)))
	}
	d := time.Since(t0)
	_ = firings
	m.set("rules.eval_ns_per_event", perOp(d, len(f.events)))
	return nil
}
