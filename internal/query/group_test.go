package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/columnmap"
	"repro/internal/dimension"
	"repro/internal/schema"
	"repro/internal/vec"
)

// groupFixture is a matrix whose group columns cover every groupTable path:
// small keys (direct array), keys at and past directLimit, negative keys and
// ^uint64(0) (overflow), zips of which some miss the dimension table and
// several share a city, and dictionary-named groups. Buckets hold 100
// records (not a multiple of 64) and the last one is short.
type groupFixture struct {
	sch  *schema.Schema
	dims *dimension.Store
	cm   *columnmap.ColumnMap

	gsmall, gbig, gzip, gname, gneg int
	vi, vu, vf, den, sel            int
}

func newGroupFixture(t *testing.T, seed int64) *groupFixture {
	t.Helper()
	sch, err := schema.NewBuilder().
		AddStatic(schema.StaticSpec{Name: "gsmall", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "gbig", Type: schema.TypeUint64}).
		AddStatic(schema.StaticSpec{Name: "gzip", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "gname", Type: schema.TypeDictString}).
		AddStatic(schema.StaticSpec{Name: "gneg", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "vi", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "vu", Type: schema.TypeUint64}).
		AddStatic(schema.StaticSpec{Name: "vf", Type: schema.TypeFloat64}).
		AddStatic(schema.StaticSpec{Name: "den", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "sel", Type: schema.TypeInt64}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	f := &groupFixture{sch: sch, cm: columnmap.New(sch.Slots, 100)}
	for name, dst := range map[string]*int{
		"gsmall": &f.gsmall, "gbig": &f.gbig, "gzip": &f.gzip, "gname": &f.gname, "gneg": &f.gneg,
		"vi": &f.vi, "vu": &f.vu, "vf": &f.vf, "den": &f.den, "sel": &f.sel,
	} {
		*dst = sch.MustAttrIndex(name)
	}

	zt := dimension.NewTable("Z", "city")
	for z := uint64(100); z < 140; z++ { // 140..149 miss the join
		if err := zt.Insert(z, fmt.Sprintf("city%d", z%7)); err != nil {
			t.Fatal(err)
		}
	}
	f.dims = dimension.NewStore()
	f.dims.Add(zt)

	rng := rand.New(rand.NewSource(seed))
	big := []uint64{0, 5, directLimit - 1, directLimit, directLimit + 1, 1 << 40, ^uint64(0), ^uint64(0) - 1}
	names := []string{"prepaid", "contract", "business", "family"}
	n := 950 + rng.Intn(100)
	skewed := seed%2 == 0 // long gid runs on even seeds
	for _, e := range rng.Perm(n) {
		rec := sch.NewRecord(uint64(e + 1))
		small := int64(rng.Intn(20))
		if skewed && rng.Intn(10) > 0 {
			small = 1
		}
		rec.SetInt(f.gsmall, small)
		if rng.Intn(4) == 0 {
			rec[f.gbig] = rng.Uint64()
		} else {
			rec[f.gbig] = big[rng.Intn(len(big))]
		}
		rec.SetInt(f.gzip, int64(100+rng.Intn(50)))
		sch.SetString(rec, f.gname, names[rng.Intn(len(names))])
		rec.SetInt(f.gneg, int64(rng.Intn(7)-3))
		rec.SetInt(f.vi, int64(rng.Intn(9)-4)) // few values: arg ties are common
		rec[f.vu] = rng.Uint64() >> uint(rng.Intn(64))
		rec.SetFloat(f.vf, (rng.Float64()-0.5)*1e6)
		rec.SetInt(f.den, int64(rng.Intn(4))) // zero ratio denominators
		rec.SetInt(f.sel, int64(rng.Intn(10)))
		if _, err := f.cm.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// queries crosses every group spec with every mask density and a
// projection list holding each aggregate operator over each value type.
func (f *groupFixture) queries() []*Query {
	aggs := []AggExpr{
		{Op: OpCount},
		{Op: OpSum, Attr: f.vi}, {Op: OpSum, Attr: f.vu}, {Op: OpSum, Attr: f.vf}, {Op: OpAvg, Attr: f.vf},
		{Op: OpMin, Attr: f.vi}, {Op: OpMin, Attr: f.vu}, {Op: OpMin, Attr: f.vf},
		{Op: OpMax, Attr: f.vi}, {Op: OpMax, Attr: f.vu}, {Op: OpMax, Attr: f.vf},
		{Op: OpArgMax, Attr: f.vf}, {Op: OpArgMin, Attr: f.vi},
		{Op: OpArgMinRatio, Attr: f.vf, Attr2: f.den}, {Op: OpArgMaxRatio, Attr: f.vu, Attr2: f.den},
	}
	noArg := aggs[:11]
	argOnly := append([]AggExpr{{Op: OpCount}}, aggs[11:]...)
	masks := [][]Conjunct{
		nil, // match-all
		{{PredInt(f.sel, vec.Gt, 4)}},
		{{PredInt(f.sel, vec.Eq, 3)}},
		{{PredInt(f.sel, vec.Gt, 100)}}, // empty
	}
	groups := []Query{
		{GroupBy: f.gsmall},
		{GroupBy: f.gbig},
		{GroupBy: f.gneg},
		{GroupBy: f.gzip},
		{GroupBy: f.gzip, GroupDim: &DimJoin{Table: "Z", Column: "city"}},
		{GroupBy: f.gname, GroupDictNames: true},
		{GroupBy: f.gname},
	}
	var out []*Query
	id := uint64(0)
	add := func(q Query) {
		id++
		q.ID = id
		out = append(out, &q)
	}
	for _, where := range masks {
		for _, g := range groups {
			g.Where = where
			g.Aggs = aggs
			add(g)
			g.Aggs = noArg // match-all without arg aggregates never builds idx
			add(g)
		}
		// Global sums associate per bucket, not per record, so only the arg
		// aggregates of a global query are comparable slot for slot.
		add(Query{Where: where, Aggs: argOnly, GroupBy: -1})
	}
	return out
}

// TestGroupedMatchesRowEvaluator is the equivalence property of the grouped
// and arg paths: over hot and frozen buckets, through ProcessBucket and the
// fused batch, every group row must equal the row-at-a-time evaluator's
// cell for cell, float sums and arg tie-breaks included.
func TestGroupedMatchesRowEvaluator(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f := newGroupFixture(t, seed)
		queries := f.queries()
		for _, q := range queries {
			if err := q.Validate(f.sch); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]*Partial, len(queries))
		re := NewRowEvaluator(f.sch, f.dims)
		rec := make([]uint64, f.sch.Slots)
		for qi, q := range queries {
			want[qi] = NewPartial(q)
			for rid := 0; rid < f.cm.Len(); rid++ {
				if err := f.cm.Gather(uint32(rid), rec); err != nil {
					t.Fatal(err)
				}
				if err := re.AddRecord(q, rec, want[qi]); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(tier string) {
			t.Helper()
			buckets := f.cm.Snapshot()
			plan, err := CompileBatch(f.sch, queries)
			if err != nil {
				t.Fatal(err)
			}
			ex := NewExecutor(f.sch, f.dims)
			batch := make([]*Partial, len(queries))
			for qi, q := range queries {
				batch[qi] = NewPartial(q)
			}
			for _, b := range buckets {
				if err := ex.ProcessBucketBatch(b, plan, batch); err != nil {
					t.Fatal(err)
				}
			}
			plan.FoldDuplicates(batch)
			for qi, q := range queries {
				single := NewPartial(q)
				for _, b := range buckets {
					if err := ex.ProcessBucket(b, q, single); err != nil {
						t.Fatal(err)
					}
				}
				for path, got := range map[string]*Partial{"batch": batch[qi], "single": single} {
					if !reflect.DeepEqual(got.Groups, want[qi].Groups) {
						t.Fatalf("seed %d, %s, %s, query %d (group %d dim %v names %v where %v): groups differ\ngot  %v\nwant %v",
							seed, tier, path, q.ID, q.GroupBy, q.GroupDim, q.GroupDictNames, q.Where, got.Groups, want[qi].Groups)
					}
				}
			}
		}
		check("hot")
		f.cm.SetColHints(f.sch.ColHints())
		f.cm.AdvanceEpoch()
		f.cm.AdvanceEpoch()
		if f.cm.FreezeCold(0, 0) == 0 {
			t.Fatal("no bucket froze")
		}
		check("frozen")
	}
}

// TestArgTieBreakIsMergeOrderIndependent pins the arg tie-break: records
// that tie on the extreme resolve to the lowest entity id, whichever
// partition's partial the coordinator merges first.
func TestArgTieBreakIsMergeOrderIndependent(t *testing.T) {
	sch, err := schema.NewBuilder().
		AddStatic(schema.StaticSpec{Name: "v", Type: schema.TypeInt64}).
		AddStatic(schema.StaticSpec{Name: "d", Type: schema.TypeInt64}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	v, d := sch.MustAttrIndex("v"), sch.MustAttrIndex("d")
	q := &Query{ID: 1, GroupBy: -1, Aggs: []AggExpr{
		{Op: OpArgMax, Attr: v}, {Op: OpArgMin, Attr: v},
		{Op: OpArgMaxRatio, Attr: v, Attr2: d}, {Op: OpArgMinRatio, Attr: v, Attr2: d},
	}}
	// Two partitions; every record ties on every aggregate. The lowest id
	// (3) sits last in the second partition.
	parts := [][]uint64{{9, 7, 8}, {6, 5, 3}}
	partials := make([]*Partial, len(parts))
	for pi, ids := range parts {
		cm := columnmap.New(sch.Slots, 2)
		for _, id := range ids {
			rec := sch.NewRecord(id)
			rec.SetInt(v, 42)
			rec.SetInt(d, 6)
			if _, err := cm.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		ex := NewExecutor(sch, nil)
		partials[pi] = NewPartial(q)
		for _, b := range cm.Snapshot() {
			if err := ex.ProcessBucket(b, q, partials[pi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		merged := NewPartial(q)
		merged.Merge(partials[order[0]], q)
		merged.Merge(partials[order[1]], q)
		res := merged.Finalize(q)
		for ai, got := range res.Rows[0].Values {
			if got != 3 {
				t.Errorf("merge order %v: %s returned entity %v, want 3", order, q.Aggs[ai].Op, got)
			}
		}
	}
}
