package main

import (
	"math"
	"testing"
)

// TestQuick runs the harness end to end on the small quick workload — a
// timed run and a traced run against a real aimserver child — and checks the
// output against BENCHMARK.json, so tier-1 catches harness rot: a renamed
// metric, a changed internal/ signature, a server flag that went away.
func TestQuick(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(janitor.run)
	bf, err := readBenchFile(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, tc := range []struct {
		name  string
		trace bool
		defs  []metricDef
		file  []benchMetric
	}{
		{"end_to_end", false, endToEnd, bf.EndToEnd},
		{"per_layer", true, perLayer, bf.PerLayer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.defs) != len(tc.file) {
				t.Errorf("BENCHMARK.json lists %d metrics, the harness %d", len(tc.file), len(tc.defs))
			}
			res, err := runOnce(runConfig{
				w: quickWorkload, seed: 1, seconds: 2, trace: tc.trace,
				root: root, bin: bin, quick: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, bm := range tc.file {
				v, ok := res.Metrics[bm.Name]
				switch {
				case !ok:
					t.Errorf("%s: in BENCHMARK.json but not in the output", bm.Name)
				case v.Unit != bm.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", bm.Name, v.Unit, bm.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: value %v is not finite", bm.Name, v.Value)
				case !tc.trace && v.Value <= 0:
					t.Errorf("%s: end-to-end value %v, want > 0", bm.Name, v.Value)
				}
			}
			if len(res.Metrics) != len(tc.file) {
				t.Errorf("output has %d metrics, BENCHMARK.json %d", len(res.Metrics), len(tc.file))
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("failed_frac = %d/%d, want 0 (first error: %s)", res.Failed, res.Attempted, res.FirstErr)
				for _, c := range res.ChecksFailed {
					t.Errorf("check %s: %s", c.Name, c.Detail)
				}
			}
		})
	}
}
