package query_test

import (
	"reflect"
	"testing"

	"repro/internal/columnmap"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestTieredScanMatchesFlat is the scan-on-compressed equivalence property:
// the seven Huawei RTA templates (plus random instances) must produce
// byte-identical partials over frozen compressed buckets, a mixed hot/cold
// split, and the flat hot matrix. Both the single-query path (direct chunk
// kernels with decompress fallback) and the fused batch path are checked.
func TestTieredScanMatchesFlat(t *testing.T) {
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	dims, err := workload.BuildDimensions(7)
	if err != nil {
		t.Fatal(err)
	}
	cm := populateMatrix(t, sch, dims, 512, 128)
	cm.SetColHints(sch.ColHints())

	gen, err := workload.NewQueryGen(sch, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*query.Query{
		gen.Q1(1), gen.Q2(3), gen.Q3(), gen.Q4(4, 60), gen.Q5(1, 1), gen.Q6(2), gen.Q7(0),
	}
	for i := 0; i < 9; i++ {
		queries = append(queries, gen.Next())
	}
	for _, q := range queries {
		if err := q.Validate(sch); err != nil {
			t.Fatal(err)
		}
	}

	run := func(buckets []columnmap.Bucket) []*query.Partial {
		t.Helper()
		out := make([]*query.Partial, len(queries))
		for qi, q := range queries {
			ex := query.NewExecutor(sch, dims.Store)
			out[qi] = query.NewPartial(q)
			for _, b := range buckets {
				if err := ex.ProcessBucket(b, q, out[qi]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	runBatch := func(buckets []columnmap.Bucket) []*query.Partial {
		t.Helper()
		plan, err := query.CompileBatch(sch, queries)
		if err != nil {
			t.Fatal(err)
		}
		ex := query.NewExecutor(sch, dims.Store)
		out := make([]*query.Partial, len(queries))
		for qi, q := range queries {
			out[qi] = query.NewPartial(q)
		}
		for _, b := range buckets {
			if err := ex.ProcessBucketBatch(b, plan, out); err != nil {
				t.Fatal(err)
			}
		}
		plan.FoldDuplicates(out)
		return out
	}

	want := run(cm.Snapshot())

	// Freeze everything: all four full buckets go cold.
	cm.AdvanceEpoch()
	if n := cm.FreezeCold(0, 0); n != 4 {
		t.Fatalf("froze %d buckets, want 4", n)
	}
	cold := cm.Snapshot()
	frozen := 0
	for _, b := range cold {
		if b.Frozen() != nil {
			frozen++
		}
	}
	if frozen != 4 {
		t.Fatalf("snapshot has %d frozen buckets, want 4", frozen)
	}
	compare := func(label string, got []*query.Partial) {
		t.Helper()
		for qi, q := range queries {
			if !reflect.DeepEqual(got[qi], want[qi]) {
				t.Errorf("%s: query %d differs\ngot  %+v\nwant %+v", label, q.ID, got[qi], want[qi])
			}
			if !reflect.DeepEqual(got[qi].Finalize(q), want[qi].Finalize(q)) {
				t.Errorf("%s: query %d finalized result differs", label, q.ID)
			}
		}
	}
	compare("all-cold sequential", run(cold))
	compare("all-cold batch", runBatch(cold))

	// Thaw half the buckets by rewriting one record in each: a mixed
	// hot/cold snapshot must still agree everywhere.
	dst := make([]uint64, sch.Slots)
	for _, e := range []uint64{1, 200} {
		if ok, err := cm.GatherEntity(e, dst); err != nil || !ok {
			t.Fatalf("gather %d: %v %v", e, ok, err)
		}
		rec := append([]uint64(nil), dst...)
		if err := cm.Upsert(rec); err != nil {
			t.Fatal(err)
		}
	}
	mixed := cm.Snapshot()
	hot := 0
	for _, b := range mixed {
		if b.Frozen() == nil {
			hot++
		}
	}
	if hot == 0 || hot == len(mixed) {
		t.Fatalf("expected a mixed split, got %d/%d hot", hot, len(mixed))
	}
	compare("mixed sequential", run(mixed))
	compare("mixed batch", runBatch(mixed))
}
