package query

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/columnmap"
	"repro/internal/dimension"
	"repro/internal/schema"
	"repro/internal/vec"
)

// fixture builds a schema of static attributes, a ColumnMap with ten
// records spread over three buckets, and a RegionInfo dimension table.
//
//	entity  zip   calls  dur   cost
//	1..10   1000+e%3  e   e*10  e*1.5
type fixture struct {
	sch   *schema.Schema
	cm    *columnmap.ColumnMap
	dims  *dimension.Store
	zip   int
	calls int
	dur   int
	cost  int
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sch, err := schema.NewBuilder().
		AddStatic(schema.StaticSpec{Name: "zip", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "calls", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "dur", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "cost", Type: schema.TypeFloat64}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		sch:   sch,
		cm:    columnmap.New(sch.Slots, 4),
		zip:   sch.MustAttrIndex("zip"),
		calls: sch.MustAttrIndex("calls"),
		dur:   sch.MustAttrIndex("dur"),
		cost:  sch.MustAttrIndex("cost"),
	}
	for e := int64(1); e <= 10; e++ {
		rec := sch.NewRecord(uint64(e))
		rec.SetInt(f.zip, 1000+e%3)
		rec.SetInt(f.calls, e)
		rec.SetInt(f.dur, e*10)
		rec.SetFloat(f.cost, float64(e)*1.5)
		if _, err := f.cm.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	rt := dimension.NewTable("RegionInfo", "city")
	for zip, city := range map[uint64]string{1000: "Zurich", 1001: "Geneva", 1002: "Bern"} {
		if err := rt.Insert(zip, city); err != nil {
			t.Fatal(err)
		}
	}
	f.dims = dimension.NewStore()
	f.dims.Add(rt)
	return f
}

// run executes q over all buckets of the fixture and finalizes.
func (f *fixture) run(t *testing.T, q *Query) *Result {
	t.Helper()
	if err := q.Validate(f.sch); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ex := NewExecutor(f.sch, f.dims)
	p := NewPartial(q)
	for _, b := range f.cm.Snapshot() {
		if err := ex.ProcessBucket(b, q, p); err != nil {
			t.Fatalf("ProcessBucket: %v", err)
		}
	}
	return p.Finalize(q)
}

func TestGlobalAggregates(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      1,
		Where:   []Conjunct{{PredInt(f.calls, vec.Gt, 5)}}, // entities 6..10
		Aggs:    []AggExpr{{Op: OpCount}, {Op: OpSum, Attr: f.dur}, {Op: OpAvg, Attr: f.cost}, {Op: OpMin, Attr: f.dur}, {Op: OpMax, Attr: f.dur}},
		GroupBy: -1,
	}
	res := f.run(t, q)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	v := res.Rows[0].Values
	if v[0] != 5 {
		t.Errorf("count = %v, want 5", v[0])
	}
	if v[1] != 60+70+80+90+100 {
		t.Errorf("sum(dur) = %v, want 400", v[1])
	}
	wantAvg := (6 + 7 + 8 + 9 + 10) * 1.5 / 5
	if math.Abs(v[2]-wantAvg) > 1e-9 {
		t.Errorf("avg(cost) = %v, want %v", v[2], wantAvg)
	}
	if v[3] != 60 || v[4] != 100 {
		t.Errorf("min/max = %v/%v, want 60/100", v[3], v[4])
	}
}

func TestEmptyFilterMatchesAll(t *testing.T) {
	f := newFixture(t)
	res := f.run(t, &Query{ID: 2, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1})
	if got := res.Rows[0].Values[0]; got != 10 {
		t.Fatalf("count = %v, want 10", got)
	}
}

func TestDNFFilter(t *testing.T) {
	f := newFixture(t)
	// calls <= 2 OR (calls >= 9 AND cost > 14.0)  => {1,2} ∪ {10} (9*1.5=13.5 excluded)
	q := &Query{
		ID: 3,
		Where: []Conjunct{
			{PredInt(f.calls, vec.Le, 2)},
			{PredInt(f.calls, vec.Ge, 9), PredFloat(f.cost, vec.Gt, 14.0)},
		},
		Aggs:    []AggExpr{{Op: OpCount}, {Op: OpSum, Attr: f.calls}},
		GroupBy: -1,
	}
	res := f.run(t, q)
	if res.Rows[0].Values[0] != 3 {
		t.Fatalf("count = %v, want 3", res.Rows[0].Values[0])
	}
	if res.Rows[0].Values[1] != 1+2+10 {
		t.Fatalf("sum = %v, want 13", res.Rows[0].Values[1])
	}
}

func TestNoMatchesFinalizesZero(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      4,
		Where:   []Conjunct{{PredInt(f.calls, vec.Gt, 100)}},
		Aggs:    []AggExpr{{Op: OpCount}, {Op: OpMin, Attr: f.dur}, {Op: OpMax, Attr: f.dur}, {Op: OpAvg, Attr: f.cost}},
		GroupBy: -1,
	}
	res := f.run(t, q)
	// A global aggregate with zero matches yields no groups at all.
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
}

func TestGroupByAttribute(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      5,
		Aggs:    []AggExpr{{Op: OpCount}, {Op: OpSum, Attr: f.dur}},
		GroupBy: f.zip,
	}
	res := f.run(t, q)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	// zip 1000: entities 3,6,9 -> count 3, dur 180; keys sorted ascending.
	if res.Rows[0].Key.I != 1000 || res.Rows[0].Values[0] != 3 || res.Rows[0].Values[1] != 180 {
		t.Fatalf("group 1000 = %+v", res.Rows[0])
	}
	// zip 1001: entities 1,4,7,10 -> count 4, dur 220.
	if res.Rows[1].Key.I != 1001 || res.Rows[1].Values[0] != 4 || res.Rows[1].Values[1] != 220 {
		t.Fatalf("group 1001 = %+v", res.Rows[1])
	}
}

func TestGroupByDimensionJoin(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:       6,
		Aggs:     []AggExpr{{Op: OpCount}},
		GroupBy:  f.zip,
		GroupDim: &DimJoin{Table: "RegionInfo", Column: "city"},
	}
	res := f.run(t, q)
	want := map[string]float64{"Bern": 3, "Geneva": 4, "Zurich": 3}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if want[row.Key.S] != row.Values[0] {
			t.Fatalf("city %q count = %v, want %v", row.Key.S, row.Values[0], want[row.Key.S])
		}
	}
	// Rows sorted by string key.
	if res.Rows[0].Key.S != "Bern" || res.Rows[2].Key.S != "Zurich" {
		t.Fatalf("row order: %v", res.Rows)
	}
}

func TestDimensionJoinInnerSemantics(t *testing.T) {
	f := newFixture(t)
	// A dimension table that only knows zip 1000 drops the other groups.
	small := dimension.NewTable("Small", "name")
	if err := small.Insert(1000, "only"); err != nil {
		t.Fatal(err)
	}
	f.dims.Add(small)
	q := &Query{
		ID:       7,
		Aggs:     []AggExpr{{Op: OpCount}},
		GroupBy:  f.zip,
		GroupDim: &DimJoin{Table: "Small", Column: "name"},
	}
	res := f.run(t, q)
	if len(res.Rows) != 1 || res.Rows[0].Key.S != "only" || res.Rows[0].Values[0] != 3 {
		t.Fatalf("inner join rows = %+v", res.Rows)
	}
}

func TestArgMaxAndRatio(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID: 8,
		Aggs: []AggExpr{
			{Op: OpArgMax, Attr: f.dur},
			{Op: OpArgMin, Attr: f.cost},
			{Op: OpArgMinRatio, Attr: f.cost, Attr2: f.dur},
		},
		GroupBy: -1,
	}
	res := f.run(t, q)
	v := res.Rows[0].Values
	if v[0] != 10 {
		t.Errorf("argmax(dur) = %v, want entity 10", v[0])
	}
	if v[1] != 1 {
		t.Errorf("argmin(cost) = %v, want entity 1", v[1])
	}
	// cost/dur = 0.15 for every entity; ties keep the first seen (entity 1).
	if v[2] != 1 {
		t.Errorf("argmin-ratio = %v, want entity 1", v[2])
	}
}

func TestDerivedRatioAndLimit(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      9,
		Aggs:    []AggExpr{{Op: OpSum, Attr: f.cost}, {Op: OpSum, Attr: f.dur}},
		GroupBy: f.calls,
		Derived: []Ratio{{Num: 0, Den: 1}},
		Limit:   4,
	}
	res := f.run(t, q)
	if len(res.Rows) != 4 {
		t.Fatalf("limit: rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Values) != 3 {
			t.Fatalf("row has %d values, want 3", len(row.Values))
		}
		if math.Abs(row.Values[2]-0.15) > 1e-9 {
			t.Fatalf("derived ratio = %v, want 0.15", row.Values[2])
		}
	}
}

func TestDerivedRatioZeroDenominator(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      10,
		Where:   []Conjunct{{PredInt(f.calls, vec.Gt, 100)}},
		Aggs:    []AggExpr{{Op: OpSum, Attr: f.cost}, {Op: OpSum, Attr: f.dur}},
		GroupBy: f.zip,
		Derived: []Ratio{{Num: 0, Den: 1}},
	}
	res := f.run(t, q)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Force a zero-denominator group via direct partial manipulation.
	p := NewPartial(q)
	p.cells(GroupKey{I: 1})
	r := p.Finalize(q)
	if r.Rows[0].Values[2] != 0 {
		t.Fatalf("zero-denominator ratio = %v, want 0", r.Rows[0].Values[2])
	}
}

func TestPartialMergeEqualsSingleScan(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      11,
		Aggs:    []AggExpr{{Op: OpCount}, {Op: OpSum, Attr: f.dur}, {Op: OpMin, Attr: f.cost}, {Op: OpMax, Attr: f.cost}, {Op: OpArgMax, Attr: f.dur}},
		GroupBy: f.zip,
	}
	if err := q.Validate(f.sch); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.sch, f.dims)

	whole := NewPartial(q)
	for _, b := range f.cm.Snapshot() {
		if err := ex.ProcessBucket(b, q, whole); err != nil {
			t.Fatal(err)
		}
	}

	// Per-bucket partials merged pairwise must give the same result.
	merged := NewPartial(q)
	for _, b := range f.cm.Snapshot() {
		p := NewPartial(q)
		if err := ex.ProcessBucket(b, q, p); err != nil {
			t.Fatal(err)
		}
		merged.Merge(p, q)
	}
	a, bres := whole.Finalize(q), merged.Finalize(q)
	if !reflect.DeepEqual(a, bres) {
		t.Fatalf("merge mismatch:\nwhole : %+v\nmerged: %+v", a, bres)
	}
}

func TestValidateRejects(t *testing.T) {
	f := newFixture(t)
	bad := []*Query{
		{ID: 1, GroupBy: -1}, // no aggs
		{ID: 2, Aggs: []AggExpr{{Op: OpSum, Attr: 999}}, GroupBy: -1},                                      // bad attr
		{ID: 3, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: 999},                                              // bad group attr
		{ID: 4, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1, GroupDim: &DimJoin{}},                         // dim w/o group
		{ID: 5, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1, Where: []Conjunct{{}}},                        // empty conjunct
		{ID: 6, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1, Derived: []Ratio{{Num: 5}}},                   // bad derived
		{ID: 7, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1, Limit: -1},                                    // bad limit
		{ID: 8, Aggs: []AggExpr{{Op: OpArgMinRatio, Attr: 2, Attr2: 999}}, GroupBy: -1},                    // bad denominator
		{ID: 9, Aggs: []AggExpr{{Op: OpCount}}, Where: []Conjunct{{PredInt(999, vec.Lt, 0)}}, GroupBy: -1}, // bad pred attr
	}
	for _, q := range bad {
		if err := q.Validate(f.sch); err == nil {
			t.Errorf("query %d validated, want error", q.ID)
		}
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID: 77,
		Where: []Conjunct{
			{PredInt(f.calls, vec.Gt, 3), PredFloat(f.cost, vec.Le, 12.5)},
			{PredInt(f.dur, vec.Eq, 40)},
		},
		Aggs:     []AggExpr{{Op: OpSum, Attr: f.dur}, {Op: OpArgMinRatio, Attr: f.cost, Attr2: f.dur}},
		GroupBy:  f.zip,
		GroupDim: &DimJoin{Table: "RegionInfo", Column: "city"},
		Derived:  []Ratio{{Num: 0, Den: 1}},
		Limit:    100,
	}
	got, err := DecodeQuery(EncodeQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, q)
	}
	// Queries without optional parts round-trip too.
	q2 := &Query{ID: 1, Aggs: []AggExpr{{Op: OpCount}}, GroupBy: -1}
	got2, err := DecodeQuery(EncodeQuery(q2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, q2) {
		t.Fatalf("round trip 2: got %+v", got2)
	}
	if _, err := DecodeQuery([]byte{1, 2}); err == nil {
		t.Fatal("truncated query decoded")
	}
}

func TestPartialCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	q := &Query{
		ID:      12,
		Aggs:    []AggExpr{{Op: OpCount}, {Op: OpMax, Attr: f.dur}, {Op: OpArgMax, Attr: f.dur}},
		GroupBy: f.zip,
	}
	ex := NewExecutor(f.sch, f.dims)
	p := NewPartial(q)
	for _, b := range f.cm.Snapshot() {
		if err := ex.ProcessBucket(b, q, p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Finalize(q), p.Finalize(q)) {
		t.Fatal("partial codec round trip changed the finalized result")
	}
	if _, err := DecodePartial([]byte{9}); err == nil {
		t.Fatal("truncated partial decoded")
	}
}
