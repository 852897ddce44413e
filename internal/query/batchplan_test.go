package query

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/vec"
)

// batchQueries builds a batch whose filters overlap heavily, the shape the
// plan compiler is designed for.
func batchQueries(f *fixture) []*Query {
	return []*Query{
		// Shares calls>4 with q2 and q4.
		{ID: 1, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		{ID: 2, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4), PredInt(f.dur, vec.Ge, 30)}},
			Aggs: []AggExpr{{Op: OpSum, Attr: f.dur}, {Op: OpAvg, Attr: f.cost}}, GroupBy: -1},
		// Empty WHERE: match-all program.
		{ID: 3, Aggs: []AggExpr{{Op: OpMin, Attr: f.cost}, {Op: OpMax, Attr: f.dur}}, GroupBy: -1},
		// Multi-conjunct DNF reusing both earlier predicates.
		{ID: 4, Where: []Conjunct{
			{PredInt(f.calls, vec.Gt, 4)},
			{PredInt(f.dur, vec.Ge, 30), PredInt(f.zip, vec.Eq, 1001)},
		}, Aggs: []AggExpr{{Op: OpArgMax, Attr: f.dur}}, GroupBy: -1},
		// Grouped with a dimension join.
		{ID: 5, Where: []Conjunct{{PredInt(f.zip, vec.Eq, 1001)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: f.zip,
			GroupDim: &DimJoin{Table: "RegionInfo", Column: "city"}},
	}
}

func TestCompileBatchDedup(t *testing.T) {
	f := newFixture(t)
	queries := batchQueries(f)
	plan, err := CompileBatch(f.sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	// Nine predicate occurrences across the batch, three distinct.
	if got := plan.NumPredicates(); got != 3 {
		t.Fatalf("NumPredicates = %d, want 3", got)
	}
	if got := plan.NumEvaluated(); got != 3 {
		t.Fatalf("NumEvaluated = %d, want 3 (no complements in batch)", got)
	}
	if len(plan.Queries()) != len(queries) {
		t.Fatalf("Queries() len = %d, want %d", len(plan.Queries()), len(queries))
	}
	if !plan.progs[2].matchAll {
		t.Fatal("empty WHERE did not compile to matchAll")
	}
	// Distinct predicates must be ordered by attribute for column locality.
	for i := 1; i < len(plan.preds); i++ {
		if plan.preds[i].Attr < plan.preds[i-1].Attr {
			t.Fatalf("predicates not attribute-ordered: %+v", plan.preds)
		}
	}
}

func TestCompileBatchComplementSharing(t *testing.T) {
	f := newFixture(t)
	queries := []*Query{
		{ID: 1, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		{ID: 2, Where: []Conjunct{{PredInt(f.calls, vec.Le, 4)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		{ID: 3, Where: []Conjunct{{PredInt(f.zip, vec.Eq, 1001)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		{ID: 4, Where: []Conjunct{{PredInt(f.zip, vec.Ne, 1001)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		// Float complements must NOT be shared (NaN semantics).
		{ID: 5, Where: []Conjunct{{PredFloat(f.cost, vec.Lt, 6.0)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		{ID: 6, Where: []Conjunct{{PredFloat(f.cost, vec.Ge, 6.0)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
	}
	plan, err := CompileBatch(f.sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.NumPredicates(); got != 6 {
		t.Fatalf("NumPredicates = %d, want 6", got)
	}
	// Gt/Le and Eq/Ne pairs on int attributes each evaluate once; the float
	// pair evaluates both sides.
	if got := plan.NumEvaluated(); got != 4 {
		t.Fatalf("NumEvaluated = %d, want 4", got)
	}
	// Derived masks must yield the same results as direct evaluation.
	assertFusedMatchesSequential(t, f, queries)
}

// assertFusedMatchesSequential checks that ProcessBucketBatch produces
// byte-identical partials to per-query ProcessBucket over the same buckets.
func assertFusedMatchesSequential(t *testing.T, f *fixture, queries []*Query) {
	t.Helper()
	for _, q := range queries {
		if err := q.Validate(f.sch); err != nil {
			t.Fatal(err)
		}
	}
	buckets := f.cm.Snapshot()

	seqEx := NewExecutor(f.sch, f.dims)
	want := make([]*Partial, len(queries))
	for qi, q := range queries {
		want[qi] = NewPartial(q)
		for _, b := range buckets {
			if err := seqEx.ProcessBucket(b, q, want[qi]); err != nil {
				t.Fatal(err)
			}
		}
	}

	plan, err := CompileBatch(f.sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.sch, f.dims)
	got := make([]*Partial, len(queries))
	for qi, q := range queries {
		got[qi] = NewPartial(q)
	}
	for _, b := range buckets {
		if err := ex.ProcessBucketBatch(b, plan, got); err != nil {
			t.Fatal(err)
		}
	}
	plan.FoldDuplicates(got)
	for qi, q := range queries {
		if !reflect.DeepEqual(got[qi], want[qi]) {
			t.Errorf("query %d: fused partial differs\ngot  %+v\nwant %+v", q.ID, got[qi], want[qi])
		}
	}
}

// TestCompileBatchDuplicateQueries checks that structurally identical
// queries are scanned once and materialized by FoldDuplicates, including
// when filter conjuncts are written in a different order.
func TestCompileBatchDuplicateQueries(t *testing.T) {
	f := newFixture(t)
	queries := []*Query{
		{ID: 1, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4), PredInt(f.dur, vec.Ge, 30)}},
			Aggs: []AggExpr{{Op: OpSum, Attr: f.dur}}, GroupBy: -1},
		// Same query, predicates swapped, different ID and Limit.
		{ID: 2, Where: []Conjunct{{PredInt(f.dur, vec.Ge, 30), PredInt(f.calls, vec.Gt, 4)}},
			Aggs: []AggExpr{{Op: OpSum, Attr: f.dur}}, GroupBy: -1, Limit: 5},
		// Same filter, different aggregates: NOT a duplicate.
		{ID: 3, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4), PredInt(f.dur, vec.Ge, 30)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		// Match-all duplicates (the Q3-template shape).
		{ID: 4, Aggs: []AggExpr{{Op: OpAvg, Attr: f.cost}}, GroupBy: f.calls},
		{ID: 5, Aggs: []AggExpr{{Op: OpAvg, Attr: f.cost}}, GroupBy: f.calls},
	}
	plan, err := CompileBatch(f.sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.NumDuplicates(); got != 2 {
		t.Fatalf("NumDuplicates = %d, want 2", got)
	}
	assertFusedMatchesSequential(t, f, queries)
}

func TestProcessBucketBatchMatchesSequential(t *testing.T) {
	f := newFixture(t)
	assertFusedMatchesSequential(t, f, batchQueries(f))
}

func TestCompileBatchAttrOutOfRange(t *testing.T) {
	f := newFixture(t)
	bad := []*Query{{
		ID:      1,
		Where:   []Conjunct{{Predicate{Attr: 99, Op: vec.Eq, Bits: 0}}},
		Aggs:    []AggExpr{{Op: OpCount}},
		GroupBy: -1,
	}}
	if _, err := CompileBatch(f.sch, bad); err == nil {
		t.Fatal("CompileBatch accepted out-of-range predicate attribute")
	}
}

func TestProcessBucketBatchPartialsMismatch(t *testing.T) {
	f := newFixture(t)
	queries := batchQueries(f)
	plan, err := CompileBatch(f.sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.sch, f.dims)
	err = ex.ProcessBucketBatch(f.cm.Snapshot()[0], plan, make([]*Partial, 1))
	if err == nil {
		t.Fatal("ProcessBucketBatch accepted mismatched partials slice")
	}
}

// TestProcessBucketBatchZeroAllocs is the zero-allocation acceptance check:
// once the first round has warmed the executor's slabs, group tables and
// scratch and sized the partials' row slabs, every later scan round — pooled
// partials Reset, every bucket processed, duplicates folded — must not touch
// the heap, grouped queries included, from the second round on. The batch holds global
// aggregates, arg aggregates and the three grouped template shapes: Q3
// (match-all GROUP BY an attribute), Q4 (filtered, dimension-joined group,
// AVG + SUM) and Q5 (two-predicate filter, dimension-joined group).
func TestProcessBucketBatchZeroAllocs(t *testing.T) {
	f := newFixture(t)
	city := &DimJoin{Table: "RegionInfo", Column: "city"}
	queries := []*Query{
		{ID: 1, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4)}},
			Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1},
		{ID: 2, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 4), PredInt(f.dur, vec.Ge, 30)}},
			Aggs: []AggExpr{{Op: OpSum, Attr: f.dur}, {Op: OpMin, Attr: f.cost}, {Op: OpMax, Attr: f.dur}}, GroupBy: -1},
		{ID: 3, Aggs: []AggExpr{{Op: OpAvg, Attr: f.cost}}, GroupBy: -1},
		{ID: 4, Where: []Conjunct{{PredInt(f.zip, vec.Ne, 1001)}},
			Aggs: []AggExpr{{Op: OpArgMax, Attr: f.dur}, {Op: OpArgMinRatio, Attr: f.cost, Attr2: f.dur}}, GroupBy: -1},
		{ID: 5, Aggs: []AggExpr{{Op: OpSum, Attr: f.cost}, {Op: OpSum, Attr: f.dur}},
			GroupBy: f.calls, Derived: []Ratio{{Num: 0, Den: 1}}, Limit: 100},
		{ID: 6, Where: []Conjunct{{PredInt(f.calls, vec.Gt, 2), PredInt(f.dur, vec.Gt, 20)}},
			Aggs: []AggExpr{{Op: OpAvg, Attr: f.calls}, {Op: OpSum, Attr: f.dur}}, GroupBy: f.zip, GroupDim: city},
		{ID: 7, Where: []Conjunct{{PredInt(f.calls, vec.Ne, 5), PredInt(f.dur, vec.Ne, 70)}},
			Aggs: []AggExpr{{Op: OpSum, Attr: f.cost}, {Op: OpSum, Attr: f.dur}}, GroupBy: f.zip, GroupDim: city},
		{ID: 8, Aggs: []AggExpr{{Op: OpSum, Attr: f.cost}, {Op: OpSum, Attr: f.dur}},
			GroupBy: f.calls, Derived: []Ratio{{Num: 0, Den: 1}}, Limit: 100}, // duplicate of 5
	}
	plan, err := CompileBatch(f.sch, queries)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.sch, f.dims)
	partials := make([]*Partial, len(queries))
	for qi := range queries {
		partials[qi] = &Partial{} // pooled, as in the node's scan loop
	}
	buckets := f.cm.Snapshot()
	round := func() {
		for qi, q := range queries {
			partials[qi].Reset(q)
		}
		for _, b := range buckets {
			if err := ex.ProcessBucketBatch(b, plan, partials); err != nil {
				t.Fatal(err)
			}
		}
		plan.FoldDuplicates(partials)
	}
	round() // warm slabs, tables and scratch; size the partials' row slabs
	// AllocsPerRun runs one unmeasured warm-up call, so count the second
	// round by hand.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Fatalf("second scan round allocates %d objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state scan round allocates %.1f objects, want 0", allocs)
	}
	if got := len(partials[4].Groups); got != 10 {
		t.Fatalf("grouped partial holds %d groups after the allocation-free rounds, want 10", got)
	}
}
