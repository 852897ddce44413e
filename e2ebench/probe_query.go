package main

import (
	"time"

	"repro/internal/query"
)

// Coupling surface: query.CompileBatch, query.NewExecutor,
// Executor.ProcessBucketBatch, BatchPlan.FoldDuplicates, query.NewPartial,
// query.EncodePartial/DecodePartial.

// probeQuery measures the shared scan over the workload's matrix (frozen
// when the workload freezes): compiling a batch of 8 into one fused plan,
// scanning with batches of 1 and of 8 (ns per record per query, so the gap
// is what sharing saves), and the partial-result wire codec.
func probeQuery(f *fixture, m *metricSet) error {
	cm, err := f.matrix(f.tiered)
	if err != nil {
		return err
	}
	buckets := cm.Snapshot()
	records := cm.Len()
	ex := query.NewExecutor(f.sch, f.dims.Store)

	const batch = 8
	var compile time.Duration
	batches := 0
	for i := 0; i+batch <= len(f.queries); i += batch {
		t0 := time.Now()
		if _, err := query.CompileBatch(f.sch, f.queries[i:i+batch]); err != nil {
			return err
		}
		compile += time.Since(t0)
		batches++
	}
	m.set("query.compile_us_per_batch", perOp(compile, batches)/1e3)

	var lastPartials []*query.Partial
	scan := func(size int) (float64, error) {
		var total time.Duration
		scanned := 0
		for i := 0; i+size <= len(f.queries); i += size {
			qs := f.queries[i : i+size]
			plan, err := query.CompileBatch(f.sch, qs)
			if err != nil {
				return 0, err
			}
			partials := make([]*query.Partial, size)
			for j, q := range qs {
				partials[j] = query.NewPartial(q)
			}
			t0 := time.Now()
			for _, b := range buckets {
				if err := ex.ProcessBucketBatch(b, plan, partials); err != nil {
					return 0, err
				}
			}
			plan.FoldDuplicates(partials)
			total += time.Since(t0)
			scanned += records * size
			lastPartials = partials
		}
		return perOp(total, scanned), nil
	}
	b1, err := scan(1)
	if err != nil {
		return err
	}
	b8, err := scan(batch)
	if err != nil {
		return err
	}
	m.set("query.scan_ns_per_record_b1", b1)
	m.set("query.scan_ns_per_record_b8", b8)

	const rounds = 200
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range lastPartials {
			if _, err := query.DecodePartial(query.EncodePartial(p)); err != nil {
				return err
			}
		}
	}
	m.set("query.partial_codec_us", perOp(time.Since(t0), rounds*len(lastPartials))/1e3)
	return nil
}
