package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchFile is the part of BENCHMARK.json the harness reads: each
// end-to-end metric's direction and the bound by which it may worsen.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchFile(root string) (*benchFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// resultSet is the timed runs of one directory, by workload.
type resultSet struct {
	runs              map[string][]*result
	attempted, failed uint64
}

func readResultSet(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-seed*.json"))
	if err != nil {
		return nil, err
	}
	rs := &resultSet{runs: map[string][]*result{}}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			continue // end-to-end metrics are never taken from a traced run
		}
		rs.runs[r.Workload] = append(rs.runs[r.Workload], &r)
		rs.attempted += r.Attempted
		rs.failed += r.Failed
	}
	if len(rs.runs) == 0 {
		return nil, fmt.Errorf("%s: no timed result files (*-seed*.json)", dir)
	}
	return rs, nil
}

func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.runs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func (rs *resultSet) failedFrac() float64 {
	if rs.attempted == 0 {
		return 0
	}
	return float64(rs.failed) / float64(rs.attempted)
}

// compareSets prints, per workload and end-to-end metric, both medians, how
// much worse B is than A, and the bound. A metric whose run-to-run spread
// (interquartile distance over median, on either side) exceeds its bound is
// "unresolved": the runs cannot tell a change of that size from noise. It
// returns 1 on a breach or when B fails a larger share of its operations.
func compareSets(dirA, dirB string) int {
	var bf *benchFile
	var a, b *resultSet
	root, err := repoRoot()
	if err == nil {
		bf, err = readBenchFile(root)
	}
	if err == nil {
		a, err = readResultSet(dirA)
	}
	if err == nil {
		b, err = readResultSet(dirB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	var names []string
	for w := range a.runs {
		if _, ok := b.runs[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Printf("A = %s\nB = %s\n", dirA, dirB)
	breaches, unresolved := 0, 0
	for _, w := range names {
		fmt.Printf("\n%s  (A: %d runs, B: %d runs)\n", w, len(a.runs[w]), len(b.runs[w]))
		fmt.Printf("  %-18s %-5s %14s %14s %9s %7s %9s %9s  %s\n",
			"metric", "unit", "median A", "median B", "B worse", "bound", "spread A", "spread B", "verdict")
		for _, bm := range bf.EndToEnd {
			va, vb := a.values(w, bm.Name), b.values(w, bm.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if bm.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > bm.Bound || sb > bm.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > bm.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("  %-18s %-5s %14.4f %14.4f %+8.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				bm.Name, bm.Unit, ma, mb, 100*worse, 100*bm.Bound, 100*sa, 100*sb, verdict)
		}
	}
	fa, fb := a.failedFrac(), b.failedFrac()
	fmt.Printf("\nfailed_frac  A %.6f (%d of %d)  B %.6f (%d of %d)\n", fa, a.failed, a.attempted, fb, b.failed, b.attempted)
	fmt.Printf("%d breach(es), %d unresolved\n", breaches, unresolved)
	if breaches > 0 || fb > fa {
		return 1
	}
	return 0
}
