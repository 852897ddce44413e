package query

import (
	"repro/internal/columnmap"
	"repro/internal/schema"
	"repro/internal/vec"
)

// The grouped path is a two-phase columnar pipeline. Phase one maps the
// bucket's group column to a dense group-id vector through a groupTable;
// phase two runs one typed vec kernel per aggregate over (column, gid) into
// dense accumulators, which are loaded from and stored back to the
// partial's rows once per touched group per bucket. Per-group accumulation
// therefore continues in record order across buckets, so grouped sums are
// bit-identical to a row-at-a-time evaluation.

const (
	// directLimit bounds the direct-indexed part of a groupTable: raw group
	// values below it (counts, zip and region ids, dictionary codes) cost
	// one array load per record; everything else goes through the
	// open-addressing overflow.
	directLimit = 1 << 16
	// maxGroupTables bounds how many groupTables an executor retains across
	// scan rounds; the least recently used one is dropped beyond that.
	maxGroupTables = 8
	// sinkGID is the group id of records that inner-join semantics drop
	// (unmatched dimension or dictionary key). Kernels accumulate into it
	// like any group; nothing reads it back.
	sinkGID = 0
)

// groupSpec is what determines a group-id vector: the grouping column and
// how its raw values become result keys. Grouped queries of one batch with
// equal specs share one gid vector per bucket.
type groupSpec struct {
	attr   int
	dim    DimJoin
	joined bool // group keys map through dim
	names  bool // group keys are the column's dictionary strings
}

func specOf(q *Query) groupSpec {
	s := groupSpec{attr: q.GroupBy, names: q.GroupDictNames}
	if q.GroupDim != nil {
		s.dim, s.joined = *q.GroupDim, true
	}
	return s
}

// groupTable maps raw group-column values to dense group ids and group ids
// to result keys. Key resolution (dimension join, dictionary name, dropped
// keys) happens once per distinct raw value; raw values that resolve to the
// same key (zips of one city) share a group id. Tables outlive a scan
// round: dimension tables are frozen and dictionary codes are never
// reassigned, so a resolved value stays resolved.
type groupTable struct {
	spec   groupSpec
	id     uint64 // distinguishes a rebuilt table from the one it replaced
	used   uint64 // executor clock of the last bind, for eviction
	dimMap map[uint64]string
	dict   *schema.Dict

	keys   []GroupKey       // gid -> result key; keys[sinkGID] is unused
	byName map[string]int32 // string key -> gid (joined and names specs)

	direct []int32 // raw value -> gid for values < len(direct); -1 = unresolved

	// Open-addressing overflow for raw values >= directLimit: ogids[i] < 0
	// marks an empty slot; capacity is a power of two, load <= 1/2.
	okeys []uint64
	ogids []int32
	olen  int
}

func newGroupTable(spec groupSpec, id uint64) *groupTable {
	t := &groupTable{spec: spec, id: id, keys: make([]GroupKey, 1)}
	if spec.joined || spec.names {
		t.byName = make(map[string]int32)
	}
	return t
}

// resolve assigns a group id to a raw value seen for the first time.
func (t *groupTable) resolve(v uint64) int32 {
	var s string
	var ok bool
	switch {
	case t.spec.joined:
		s, ok = t.dimMap[v]
	case t.spec.names:
		s, ok = t.dict.String(v)
	default:
		t.keys = append(t.keys, GroupKey{I: int64(v)})
		return int32(len(t.keys) - 1)
	}
	if !ok {
		return sinkGID
	}
	g, seen := t.byName[s]
	if !seen {
		t.keys = append(t.keys, GroupKey{S: s})
		g = int32(len(t.keys) - 1)
		t.byName[s] = g
	}
	return g
}

// lookup is the slow path of mapAll: it grows the direct array or probes
// the overflow, resolving v on first sight.
func (t *groupTable) lookup(v uint64) int32 {
	if v < directLimit {
		if v >= uint64(len(t.direct)) {
			size := 256
			for uint64(size) <= v {
				size *= 2
			}
			grown := make([]int32, size)
			n := copy(grown, t.direct)
			for i := n; i < size; i++ {
				grown[i] = -1
			}
			t.direct = grown
		}
		g := t.direct[v]
		if g < 0 {
			g = t.resolve(v)
			t.direct[v] = g
		}
		return g
	}
	if 2*(t.olen+1) > len(t.okeys) {
		t.growOverflow()
	}
	mask := uint64(len(t.okeys) - 1)
	for i := hashKey(v) & mask; ; i = (i + 1) & mask {
		if t.ogids[i] < 0 {
			g := t.resolve(v)
			t.okeys[i], t.ogids[i] = v, g
			t.olen++
			return g
		}
		if t.okeys[i] == v {
			return t.ogids[i]
		}
	}
}

func hashKey(v uint64) uint64 {
	v *= 0x9E3779B97F4A7C15
	return v ^ v>>32
}

func (t *groupTable) growOverflow() {
	size := 2 * len(t.okeys)
	if size == 0 {
		size = 64
	}
	okeys, ogids := t.okeys, t.ogids
	t.okeys, t.ogids = make([]uint64, size), make([]int32, size)
	for i := range t.ogids {
		t.ogids[i] = -1
	}
	mask := uint64(size - 1)
	for j, g := range ogids {
		if g < 0 {
			continue
		}
		i := hashKey(okeys[j]) & mask
		for t.ogids[i] >= 0 {
			i = (i + 1) & mask
		}
		t.okeys[i], t.ogids[i] = okeys[j], g
	}
}

// mapAll is phase one: gid[i] = group id of col[i] for every record. It
// returns the number of runs of equal adjacent gids.
func (t *groupTable) mapAll(col []uint64, gid []int32) int {
	direct := t.direct
	runs := 0
	prev := int32(-1)
	for i, v := range col {
		g := int32(-1)
		if v < uint64(len(direct)) {
			g = direct[v]
		}
		if g < 0 {
			g = t.lookup(v)
			direct = t.direct
		}
		gid[i] = g
		if g != prev {
			runs++
		}
		prev = g
	}
	return runs
}

// groupRows memoizes, for one batch-query position, the accumulator row of
// each group id in the partial being filled. It stays valid as long as it
// observes the same (partial, generation, table) triple; pooled partials
// bump their generation on Reset.
type groupRows struct {
	p    *Partial
	gen  uint64
	tab  uint64
	rows [][]Cell // gid -> row of p; nil = not looked up yet
}

// bind returns the row memo for p over t's group ids, emptied if it was
// bound to anything else.
func (gr *groupRows) bind(p *Partial, t *groupTable) [][]Cell {
	if gr.p != p || gr.gen != p.gen || gr.tab != t.id {
		if len(gr.rows) > maxRetainedCells {
			gr.rows = nil // as Partial.Reset: one huge result must not stay pinned
		}
		clear(gr.rows)
		gr.p, gr.gen, gr.tab = p, p.gen, t.id
	}
	for len(gr.rows) < len(t.keys) {
		gr.rows = append(gr.rows, nil)
	}
	return gr.rows
}

// table returns the executor's groupTable for spec, building it (and
// evicting the least recently used one) if needed.
func (ex *Executor) table(spec groupSpec) (*groupTable, error) {
	ex.tableClock++
	lru := 0
	for i, t := range ex.tables {
		if t.spec == spec {
			t.used = ex.tableClock
			return t, nil
		}
		if t.used < ex.tables[lru].used {
			lru = i
		}
	}
	t := newGroupTable(spec, ex.tableClock)
	t.used = ex.tableClock
	if spec.joined {
		m, err := ex.dimLookupMap(spec.dim)
		if err != nil {
			return nil, err
		}
		t.dimMap = m
	}
	if spec.names {
		t.dict = ex.sch.Dict(spec.attr)
	}
	if len(ex.tables) < maxGroupTables {
		ex.tables = append(ex.tables, t)
	} else {
		ex.tables[lru] = t
	}
	return t, nil
}

// gidSlot is the per-bucket state of one distinct group spec of the batch:
// the table its gid vector was mapped through (nil until a query needs the
// vector) and how many runs of equal adjacent gids the vector has.
type gidSlot struct {
	tab  *groupTable
	runs int
}

// beginBucket sizes the per-bucket gid slab for slots distinct group specs
// over n records and forgets the previous bucket's vectors.
func (ex *Executor) beginBucket(slots, n int) {
	if cap(ex.gids) < slots*n {
		ex.gids = make([]int32, slots*n)
	}
	for len(ex.gidSlots) < slots {
		ex.gidSlots = append(ex.gidSlots, gidSlot{})
	}
	clear(ex.gidSlots)
}

// groupIDs returns the bucket's gid vector for spec and its number of
// runs, computing them on first use; later grouped queries of the batch
// with the same slot share them.
func (ex *Executor) groupIDs(b columnmap.Bucket, spec groupSpec, slot int) (*groupTable, []int32, int, error) {
	gid := ex.gids[:cap(ex.gids)][slot*b.N : (slot+1)*b.N]
	s := &ex.gidSlots[slot]
	if s.tab == nil {
		t, err := ex.table(spec)
		if err != nil {
			return nil, nil, 0, err
		}
		s.tab, s.runs = t, t.mapAll(ex.col(b, spec.attr), gid)
	}
	return s.tab, gid, s.runs, nil
}

// ensureGroupScratch sizes the dense accumulators for ng group ids. cnt is
// all zero between buckets (aggregateGrouped restores that), so growth only
// has to zero the new tail, which make does.
func (ex *Executor) ensureGroupScratch(ng int) {
	if len(ex.cnt) >= ng {
		return
	}
	size := 2 * ng
	ex.cnt = make([]int64, size)
	ex.accf = make([]float64, size)
	ex.touched = make([]int32, size+1)
}

// valueKind indexes the typed kernel tables; it mirrors slotVal's dispatch.
func valueKind(t schema.Type) int {
	switch t {
	case schema.TypeFloat64:
		return 2
	case schema.TypeUint64:
		return 1
	default:
		return 0
	}
}

// Typed kernel tables, indexed by valueKind.
var (
	sumKernels = [3]func(col []uint64, idx, gid []int32, byRun bool, acc []float64){
		vec.GroupSumInt, vec.GroupSumUint, vec.GroupSumFloat,
	}
	minKernels = [3]func(col []uint64, idx, gid []int32, acc []float64){
		vec.GroupMinInt, vec.GroupMinUint, vec.GroupMinFloat,
	}
	maxKernels = [3]func(col []uint64, idx, gid []int32, acc []float64){
		vec.GroupMaxInt, vec.GroupMaxUint, vec.GroupMaxFloat,
	}
)

// foldField returns the accessor of the Cell field a sum, min or max
// aggregate accumulates in. It is called once per touched group per bucket,
// never per record.
func foldField(op AggOp) func(*Cell) *float64 {
	switch op {
	case OpMin:
		return func(c *Cell) *float64 { return &c.Min }
	case OpMax:
		return func(c *Cell) *float64 { return &c.Max }
	default:
		return func(c *Cell) *float64 { return &c.Sum }
	}
}

var gatherKernels = [3]func(col []uint64, idx []int32, dst []float64){
	vec.GatherInt, vec.GatherUint, vec.GatherFloat,
}

// aggregateGrouped folds the records selected by mask into p's group rows.
// slot names the bucket's gid vector for q's group spec and gr is q's row
// memo.
func (ex *Executor) aggregateGrouped(b columnmap.Bucket, q *Query, p *Partial, mask []uint64, slot int, gr *groupRows) error {
	matched := int(vec.Count(mask))
	if matched == 0 {
		return nil
	}
	t, gid, runs, err := ex.groupIDs(b, specOf(q), slot)
	if err != nil {
		return err
	}
	hasArg := false
	for _, a := range q.Aggs {
		hasArg = hasArg || a.Op >= OpArgMax
	}
	// Match-all buckets run the kernels over the whole gid vector and never
	// materialize indices; arg aggregates walk idx whatever the mask. The
	// kernels go run by run only when runs average minRunLen records: below
	// that run tracking costs more than the store-forwarding it avoids.
	const minRunLen = 4
	var idx []int32
	if matched != b.N || hasArg {
		ex.idx = vec.Indices(mask, ex.idx)
		idx = ex.idx
	}
	byRun := idx == nil && runs*minRunLen <= b.N
	ex.ensureGroupScratch(len(t.keys))
	cnt, acc := ex.cnt, ex.accf
	touched := ex.touched[:vec.GroupCount(gid, idx, byRun, cnt, ex.touched)]
	rows := gr.bind(p, t)
	for k, g := range touched {
		if g == sinkGID {
			cnt[sinkGID] = 0
			touched[k] = touched[len(touched)-1]
			touched = touched[:len(touched)-1]
			break
		}
	}
	for _, g := range touched {
		if rows[g] == nil {
			rows[g] = p.cells(t.keys[g])
		}
	}
	for ai, a := range q.Aggs {
		switch a.Op {
		case OpCount:
		case OpSum, OpAvg, OpMin, OpMax:
			field := foldField(a.Op)
			for _, g := range touched {
				acc[g] = *field(&rows[g][ai])
			}
			col, kind := ex.col(b, a.Attr), valueKind(ex.sch.Attrs[a.Attr].Type)
			switch a.Op {
			case OpMin:
				minKernels[kind](col, idx, gid, acc)
			case OpMax:
				maxKernels[kind](col, idx, gid, acc)
			default:
				sumKernels[kind](col, idx, gid, byRun, acc)
			}
			for _, g := range touched {
				*field(&rows[g][ai]) = acc[g]
			}
		default:
			ex.foldArg(b, a, idx, nil, gid, rows, ai)
		}
	}
	for _, g := range touched {
		c := cnt[g]
		cnt[g] = 0
		row := rows[g]
		for ai := range row {
			row[ai].Count += c
		}
	}
	return nil
}

// foldArg folds arg aggregate a (entity id of the extreme value) over the
// records in idx: into cell for a global query, or into rows[gid[i]][ai] for
// a grouped one. The value columns are gathered to float64 first, so the
// per-record loop holds no type dispatch; the entity-id column is read only
// here.
func (ex *Executor) foldArg(b columnmap.Bucket, a AggExpr, idx []int32, cell *Cell, gid []int32, rows [][]Cell, ai int) {
	ids := ex.col(b, schema.SlotEntityID)
	if cap(ex.vals) < len(idx) {
		ex.vals = make([]float64, len(idx))
		ex.dens = make([]float64, len(idx))
	}
	vals := ex.vals[:len(idx)]
	gatherKernels[valueKind(ex.sch.Attrs[a.Attr].Type)](ex.col(b, a.Attr), idx, vals)
	var dens []float64
	if a.Op == OpArgMinRatio || a.Op == OpArgMaxRatio {
		dens = ex.dens[:len(idx)]
		gatherKernels[valueKind(ex.sch.Attrs[a.Attr2].Type)](ex.col(b, a.Attr2), idx, dens)
	}
	isMax := a.Op == OpArgMax || a.Op == OpArgMaxRatio
	for k, i := range idx {
		v := vals[k]
		if dens != nil {
			if dens[k] == 0 {
				continue
			}
			v /= dens[k]
		}
		if gid != nil {
			g := gid[i]
			if g == sinkGID {
				continue
			}
			cell = &rows[g][ai]
		}
		// Most records lose outright; only a win or a tie reads the id.
		if cell.ArgSet && (isMax && v < cell.ArgVal || !isMax && v > cell.ArgVal) {
			continue
		}
		updateArg(cell, a.Op, ids[i], v)
	}
}
