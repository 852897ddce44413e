package query_test

import (
	"reflect"
	"testing"

	"repro/internal/columnmap"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// populateMatrix builds an Analytics Matrix over the Huawei small schema:
// every entity gets the dimension-consistent static attributes from the
// factory plus a few applied events so the aggregate indicators are
// non-trivial.
func populateMatrix(t testing.TB, sch *schema.Schema, dims *workload.Dimensions, entities uint64, bucketSize int) *columnmap.ColumnMap {
	t.Helper()
	factory := dims.Factory(sch)
	gen := event.NewGenerator(entities, 42)
	cm := columnmap.New(sch.Slots, bucketSize)
	var ev event.Event
	for e := uint64(1); e <= entities; e++ {
		rec := factory(e)
		for i := 0; i < 3; i++ {
			gen.NextFor(&ev, e)
			sch.Apply(rec, &ev)
		}
		if _, err := cm.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return cm
}

// TestFusedBatchMatchesSequentialWorkload is the property check behind the
// fused shared scan: a fused batch of N template queries must produce
// byte-identical partials to N sequential single-query scans over the same
// snapshot. It runs the seven Huawei RTA templates (Table 5) plus a batch of
// randomly-parameterized instances, which is exactly the predicate-overlap
// profile the plan compiler fuses.
func TestFusedBatchMatchesSequentialWorkload(t *testing.T) {
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	dims, err := workload.BuildDimensions(7)
	if err != nil {
		t.Fatal(err)
	}
	cm := populateMatrix(t, sch, dims, 512, 128)
	buckets := cm.Snapshot()

	gen, err := workload.NewQueryGen(sch, 7)
	if err != nil {
		t.Fatal(err)
	}
	// One fixed instance per template, then more random draws so repeated
	// templates with identical and differing parameters both occur.
	queries := []*query.Query{
		gen.Q1(1), gen.Q2(3), gen.Q3(), gen.Q4(4, 60), gen.Q5(1, 1), gen.Q6(2), gen.Q7(0),
	}
	for i := 0; i < 9; i++ {
		queries = append(queries, gen.Next())
	}
	occurrences := 0
	for _, q := range queries {
		if err := q.Validate(sch); err != nil {
			t.Fatal(err)
		}
		for _, c := range q.Where {
			occurrences += len(c)
		}
	}

	// Sequential reference: one query at a time, as N independent scans.
	want := make([]*query.Partial, len(queries))
	for qi, q := range queries {
		ex := query.NewExecutor(sch, dims.Store)
		want[qi] = query.NewPartial(q)
		for _, b := range buckets {
			if err := ex.ProcessBucket(b, q, want[qi]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Fused batch: one plan, one pass.
	plan, err := query.CompileBatch(sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPredicates() >= occurrences {
		t.Fatalf("no cross-query sharing: %d distinct predicates from %d occurrences",
			plan.NumPredicates(), occurrences)
	}
	ex := query.NewExecutor(sch, dims.Store)
	got := make([]*query.Partial, len(queries))
	for qi, q := range queries {
		got[qi] = query.NewPartial(q)
	}
	for _, b := range buckets {
		if err := ex.ProcessBucketBatch(b, plan, got); err != nil {
			t.Fatal(err)
		}
	}
	plan.FoldDuplicates(got)

	for qi, q := range queries {
		if !reflect.DeepEqual(got[qi], want[qi]) {
			t.Errorf("query %d (template params %+v): fused partial differs\ngot  %+v\nwant %+v",
				q.ID, q.Where, got[qi], want[qi])
		}
		// Finalized results must agree too (exercises group ordering, limits
		// and derived ratios on top of the raw accumulators).
		if !reflect.DeepEqual(got[qi].Finalize(q), want[qi].Finalize(q)) {
			t.Errorf("query %d: finalized result differs", q.ID)
		}
	}
}
