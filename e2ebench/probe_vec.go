package main

import (
	"time"

	"repro/internal/vec"
)

// Coupling surface: vec.CmpInt, vec.MaxFloat, vec.Compress, vec.CmpChunkInt,
// vec.MaxFloatChunk, vec.Decompress, vec.MaskWords.

// probeVec measures the scan kernels on the workload's own columns at its
// own selectivity: Q2's predicate (calls_any_week_count > 3) into a mask and
// Q2's aggregate (MAX cost_any_week_max) under it, once over raw columns and
// once over the same columns compressed into chunks.
func probeVec(f *fixture, m *metricSet) error {
	predAttr, err := f.sch.AttrIndex("calls_any_week_count")
	if err != nil {
		return err
	}
	aggAttr, err := f.sch.AttrIndex("cost_any_week_max")
	if err != nil {
		return err
	}
	predCol, aggCol := f.sch.Attrs[predAttr].Slot, f.sch.Attrs[aggAttr].Slot
	cm, err := f.matrix(false)
	if err != nil {
		return err
	}
	buckets := cm.Snapshot()
	hints := f.sch.ColHints()
	type cols struct {
		n           int
		pred, agg   []uint64
		predC, aggC vec.Chunk
		mask        []uint64
	}
	var set []cols
	values := 0
	for _, b := range buckets {
		c := cols{n: b.N, pred: b.Col(predCol), agg: b.Col(aggCol), mask: make([]uint64, vec.MaskWords(b.N))}
		c.predC = vec.Compress(c.pred, c.n, hints[predCol])
		c.aggC = vec.Compress(c.agg, c.n, hints[aggCol])
		set = append(set, c)
		values += b.N
	}
	const beta = 3
	rounds := 1 + 4_000_000/values
	var sink float64
	scratch := make([]uint64, f.bucket)

	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range set {
			vec.CmpInt(set[i].pred, set[i].n, vec.Gt, beta, set[i].mask)
		}
	}
	cmp := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range set {
			v, _ := vec.MaxFloat(set[i].agg, set[i].mask)
			sink += v
		}
	}
	agg := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range set {
			c := &set[i]
			if !vec.CmpChunkInt(&c.predC, c.n, vec.Gt, beta, c.mask) {
				// No direct kernel for this shape: the executor decompresses.
				vec.CmpInt(vec.Decompress(&c.predC, scratch), c.n, vec.Gt, beta, c.mask)
			}
		}
	}
	chunkCmp := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range set {
			c := &set[i]
			v, _, ok := vec.MaxFloatChunk(&c.aggC, c.mask)
			if !ok {
				v, _ = vec.MaxFloat(vec.Decompress(&c.aggC, scratch), c.mask)
			}
			sink += v
		}
	}
	chunkAgg := time.Since(t0)
	_ = sink

	kvalues := rounds * values / 1000
	m.set("vec.cmp_ns_per_kvalue", perOp(cmp, kvalues))
	m.set("vec.agg_ns_per_kvalue", perOp(agg, kvalues))
	m.set("vec.chunk_cmp_ns_per_kvalue", perOp(chunkCmp, kvalues))
	m.set("vec.chunk_agg_ns_per_kvalue", perOp(chunkAgg, kvalues))
	return nil
}
