package query_test

import (
	"fmt"
	"testing"

	"repro/internal/columnmap"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// setupBench populates a matrix of the given shape over the small Huawei
// schema and returns the scan fixtures.
func setupBench(b testing.TB, entities uint64, bucketSize int) (*schema.Schema, []columnmap.Bucket, *workload.QueryGen, *workload.Dimensions) {
	b.Helper()
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		b.Fatal(err)
	}
	dims, err := workload.BuildDimensions(7)
	if err != nil {
		b.Fatal(err)
	}
	cm := populateMatrix(b, sch, dims, entities, bucketSize)
	gen, err := workload.NewQueryGen(sch, 7)
	if err != nil {
		b.Fatal(err)
	}
	return sch, cm.Snapshot(), gen, dims
}

// templateBatch returns the first size queries of the cyclic template
// sequence Q1..Q7, Q1', Q2', ... — repeated templates carry fresh random
// parameters, matching what a node's coordinator batches under load.
func templateBatch(gen *workload.QueryGen, size int) []*query.Query {
	fixed := []*query.Query{
		gen.Q1(1), gen.Q2(3), gen.Q3(), gen.Q4(4, 60), gen.Q5(1, 1), gen.Q6(2), gen.Q7(0),
	}
	out := make([]*query.Query, 0, size)
	if size < len(fixed) {
		out = append(out, fixed[:size]...)
	} else {
		out = append(out, fixed...)
	}
	for len(out) < size {
		out = append(out, gen.Next())
	}
	return out
}

// BenchmarkSharedScanBatch compares three batch-scan regimes at the batch
// sizes the acceptance criteria name. One iteration is one full scan round
// (the whole batch over every bucket):
//
//   - single: one independent pass per query — batch × single-query cost,
//     the thread-per-query baseline the fused plan is measured against.
//   - naive:  shared bucket walk, but each query re-evaluates its own
//     predicates per bucket (the pre-batch-plan code path).
//   - fused:  compiled BatchPlan — predicate dedup, complement sharing,
//     mask-slab caching, duplicate-query elimination.
func BenchmarkSharedScanBatch(b *testing.B) {
	sch, buckets, gen, dims := setupBench(b, 8192, 1024)
	for _, size := range []int{1, 4, 8, 16} {
		queries := templateBatch(gen, size)
		partials := make([]*query.Partial, len(queries))
		for qi, q := range queries {
			partials[qi] = query.NewPartial(q)
		}

		b.Run(fmt.Sprintf("single/batch=%d", size), func(b *testing.B) {
			ex := query.NewExecutor(sch, dims.Store)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi, q := range queries {
					partials[qi].Reset(q)
				}
				for qi, q := range queries {
					for _, bk := range buckets {
						if err := ex.ProcessBucket(bk, q, partials[qi]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})

		b.Run(fmt.Sprintf("naive/batch=%d", size), func(b *testing.B) {
			ex := query.NewExecutor(sch, dims.Store)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi, q := range queries {
					partials[qi].Reset(q)
				}
				for _, bk := range buckets {
					for qi, q := range queries {
						if err := ex.ProcessBucket(bk, q, partials[qi]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})

		b.Run(fmt.Sprintf("fused/batch=%d", size), func(b *testing.B) {
			plan, err := query.CompileBatch(sch, queries)
			if err != nil {
				b.Fatal(err)
			}
			ex := query.NewExecutor(sch, dims.Store)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for qi, q := range queries {
					partials[qi].Reset(q)
				}
				for _, bk := range buckets {
					if err := ex.ProcessBucketBatch(bk, plan, partials); err != nil {
						b.Fatal(err)
					}
				}
				plan.FoldDuplicates(partials)
			}
		})
	}
}

// BenchmarkTemplateScan is the query layer's fixed-shape benchmark: one
// partition's worth of compact records at the server's default bucket size
// (20 buckets of 3072, the per-partition shape of e2ebench's scan_saturate),
// each of the seven templates scanned alone through the fused batch path
// with a pooled partial. ns/record is the per-template split of a scan
// round's cost.
func BenchmarkTemplateScan(b *testing.B) {
	const bucketSize, numBuckets = 3072, 20
	sch, buckets, gen, dims := setupBench(b, bucketSize*numBuckets, bucketSize)
	for ti, q := range templateBatch(gen, 7) {
		b.Run(fmt.Sprintf("Q%d", ti+1), func(b *testing.B) {
			queries := []*query.Query{q}
			plan, err := query.CompileBatch(sch, queries)
			if err != nil {
				b.Fatal(err)
			}
			ex := query.NewExecutor(sch, dims.Store)
			partials := []*query.Partial{query.NewPartial(q)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				partials[0].Reset(q)
				for _, bk := range buckets {
					if err := ex.ProcessBucketBatch(bk, plan, partials); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(bucketSize*numBuckets), "ns/record")
		})
	}
}
