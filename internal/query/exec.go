package query

import (
	"fmt"
	"math"

	"repro/internal/columnmap"
	"repro/internal/dimension"
	"repro/internal/schema"
	"repro/internal/vec"
)

// Executor evaluates queries over ColumnMap buckets. One Executor belongs to
// one scan goroutine (see the package doc for the thread-confinement
// contract): it owns reusable bitmask scratch buffers, the batch-plan mask
// and gid slabs, the group tables and a dimension lookup cache, so
// steady-state bucket processing is allocation-free.
type Executor struct {
	sch  *schema.Schema
	dims *dimension.Store

	acc  []uint64 // DNF accumulator mask
	conj []uint64 // current conjunct mask
	pred []uint64 // current predicate mask
	slab []uint64 // per-bucket mask cache for batch plans (one mask per distinct predicate)
	idx  []int32  // matched-record index slab for the grouped and arg paths

	// Grouped path (group.go): retained group tables, the per-bucket gid
	// slab (one vector per distinct group spec of the batch, state in
	// gidSlots), one row memo per batch-query position, and the dense
	// accumulators the vec group kernels fold into.
	tables     []*groupTable
	tableClock uint64
	gids       []int32
	gidSlots   []gidSlot
	grows      []groupRows
	cnt        []int64
	accf       []float64
	touched    []int32
	vals, dens []float64 // gathered arg-aggregate operands

	// Cold-tier scan support: per-column pooled scratch for frozen buckets
	// whose shape has no direct chunk kernel (and for the group-by and arg
	// paths). Keyed by the FrozenBucket pointer, so a column is
	// decompressed at most once per bucket per pass and the backing arrays
	// are reused across buckets.
	thawRef   *columnmap.FrozenBucket
	thawBufs  [][]uint64
	thawValid []bool

	dimCache map[DimJoin]map[uint64]string
}

// NewExecutor returns an executor bound to a schema and the node's
// replicated dimension tables (dims may be nil if no query joins).
func NewExecutor(sch *schema.Schema, dims *dimension.Store) *Executor {
	return &Executor{sch: sch, dims: dims, dimCache: make(map[DimJoin]map[uint64]string)}
}

func (ex *Executor) ensureScratch(n int) {
	w := vec.MaskWords(n)
	if cap(ex.acc) < w {
		ex.acc = make([]uint64, w)
		ex.conj = make([]uint64, w)
		ex.pred = make([]uint64, w)
	}
	ex.acc = ex.acc[:cap(ex.acc)][:w]
	ex.conj = ex.conj[:cap(ex.conj)][:w]
	ex.pred = ex.pred[:cap(ex.pred)][:w]
}

// ensureSlab returns the mask slab resliced to hold words words, growing the
// backing array only when a bigger batch or bucket arrives.
func (ex *Executor) ensureSlab(words int) []uint64 {
	if cap(ex.slab) < words {
		ex.slab = make([]uint64, words)
	}
	ex.slab = ex.slab[:cap(ex.slab)][:words]
	return ex.slab
}

// ProcessBucket evaluates q over one bucket and folds matches into p. This
// is the process_bucket step of the paper's shared scan (Algorithm 5).
//
// For whole-batch processing with cross-query predicate sharing, compile the
// batch with CompileBatch and use ProcessBucketBatch instead.
func (ex *Executor) ProcessBucket(b columnmap.Bucket, q *Query, p *Partial) error {
	n := b.N
	if n == 0 {
		return nil
	}
	ex.ensureScratch(n)

	// Filter: DNF over word-packed bitmasks.
	if len(q.Where) == 0 {
		vec.FillMask(ex.acc, n)
	} else {
		vec.ZeroMask(ex.acc)
		for _, c := range q.Where {
			for pi, pr := range c {
				if err := ex.evalPredicate(b, n, pr, ex.pred); err != nil {
					return err
				}
				if pi == 0 {
					vec.CopyMask(ex.conj, ex.pred)
				} else {
					vec.And(ex.conj, ex.pred)
				}
			}
			vec.Or(ex.acc, ex.conj)
		}
	}
	if q.GroupBy < 0 {
		ex.aggregateGlobal(b, q, p, ex.acc)
		return nil
	}
	ex.beginBucket(1, n)
	if len(ex.grows) == 0 {
		ex.grows = make([]groupRows, 1)
	}
	return ex.aggregateGrouped(b, q, p, ex.acc, 0, &ex.grows[0])
}

// evalPredicate fills mask with the predicate result over the bucket.
// Frozen buckets are evaluated directly on the compressed chunks; shapes
// without a direct kernel decompress into the pooled scratch and run the
// raw kernels.
func (ex *Executor) evalPredicate(b columnmap.Bucket, n int, pr Predicate, mask []uint64) error {
	if pr.Attr < 0 || pr.Attr >= ex.sch.NumAttrs() {
		return fmt.Errorf("query: predicate attribute %d out of range", pr.Attr)
	}
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(pr.Attr)
		var ok bool
		switch ex.sch.Attrs[pr.Attr].Type {
		case schema.TypeInt64:
			ok = vec.CmpChunkInt(ch, n, pr.Op, int64(pr.Bits), mask)
		case schema.TypeUint64, schema.TypeDictString:
			ok = vec.CmpChunkUint(ch, n, pr.Op, pr.Bits, mask)
		case schema.TypeFloat64:
			ok = vec.CmpChunkFloat(ch, n, pr.Op, math.Float64frombits(pr.Bits), mask)
		}
		if ok {
			return nil
		}
	}
	col := ex.col(b, pr.Attr)
	switch ex.sch.Attrs[pr.Attr].Type {
	case schema.TypeInt64:
		vec.CmpInt(col, n, pr.Op, int64(pr.Bits), mask)
	case schema.TypeUint64, schema.TypeDictString:
		vec.CmpUint(col, n, pr.Op, pr.Bits, mask)
	case schema.TypeFloat64:
		vec.CmpFloat(col, n, pr.Op, math.Float64frombits(pr.Bits), mask)
	}
	return nil
}

// col returns column c of the bucket for per-record access: the hot slab
// directly, or a pooled decompressed copy for frozen buckets.
func (ex *Executor) col(b columnmap.Bucket, c int) []uint64 {
	fb := b.Frozen()
	if fb == nil {
		return b.Col(c)
	}
	if ex.thawBufs == nil {
		ex.thawBufs = make([][]uint64, ex.sch.Slots)
		ex.thawValid = make([]bool, ex.sch.Slots)
	}
	if ex.thawRef != fb {
		ex.thawRef = fb
		for i := range ex.thawValid {
			ex.thawValid[i] = false
		}
	}
	if !ex.thawValid[c] {
		ex.thawBufs[c] = fb.DecompressCol(c, ex.thawBufs[c])
		ex.thawValid[c] = true
	}
	return ex.thawBufs[c][:b.N]
}

// aggregateGlobal is the vectorized single-group path.
func (ex *Executor) aggregateGlobal(b columnmap.Bucket, q *Query, p *Partial, mask []uint64) {
	matched := vec.Count(mask)
	if matched == 0 {
		return
	}
	cells := p.cells(GroupKey{})
	var idx []int32 // materialized once, by the first arg aggregate
	for i, a := range q.Aggs {
		cell := &cells[i]
		cell.Count += matched
		switch a.Op {
		case OpCount:
			// count already folded in
		case OpSum, OpAvg:
			cell.Sum += ex.maskedSum(b, a.Attr, mask)
		case OpMin:
			if v, ok := ex.maskedMin(b, a.Attr, mask); ok && v < cell.Min {
				cell.Min = v
			}
		case OpMax:
			if v, ok := ex.maskedMax(b, a.Attr, mask); ok && v > cell.Max {
				cell.Max = v
			}
		default:
			if idx == nil {
				ex.idx = vec.Indices(mask, ex.idx)
				idx = ex.idx
			}
			ex.foldArg(b, a, idx, cell, nil, nil, 0)
		}
	}
}

func (ex *Executor) maskedSum(b columnmap.Bucket, attr int, mask []uint64) float64 {
	isFloat := ex.sch.Attrs[attr].Type == schema.TypeFloat64
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(attr)
		if !isFloat {
			return float64(vec.SumIntChunk(ch, mask))
		}
		if v, ok := vec.SumFloatChunk(ch, mask); ok {
			return v
		}
		return vec.SumFloat(ex.col(b, attr), mask)
	}
	col := b.Col(attr)
	if isFloat {
		return vec.SumFloat(col, mask)
	}
	return float64(vec.SumInt(col, mask))
}

func (ex *Executor) maskedMin(b columnmap.Bucket, attr int, mask []uint64) (float64, bool) {
	isFloat := ex.sch.Attrs[attr].Type == schema.TypeFloat64
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(attr)
		if !isFloat {
			v, any := vec.MinIntChunk(ch, mask)
			return float64(v), any
		}
		if v, any, ok := vec.MinFloatChunk(ch, mask); ok {
			return v, any
		}
		return vec.MinFloat(ex.col(b, attr), mask)
	}
	col := b.Col(attr)
	if isFloat {
		return vec.MinFloat(col, mask)
	}
	v, ok := vec.MinInt(col, mask)
	return float64(v), ok
}

func (ex *Executor) maskedMax(b columnmap.Bucket, attr int, mask []uint64) (float64, bool) {
	isFloat := ex.sch.Attrs[attr].Type == schema.TypeFloat64
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(attr)
		if !isFloat {
			v, any := vec.MaxIntChunk(ch, mask)
			return float64(v), any
		}
		if v, any, ok := vec.MaxFloatChunk(ch, mask); ok {
			return v, any
		}
		return vec.MaxFloat(ex.col(b, attr), mask)
	}
	col := b.Col(attr)
	if isFloat {
		return vec.MaxFloat(col, mask)
	}
	v, ok := vec.MaxInt(col, mask)
	return float64(v), ok
}

// argBetter reports whether candidate (v, id) beats the current extreme
// (best, bestID) of an arg aggregate. Ties on the value go to the lower
// entity id, so the winner depends neither on record order nor on the order
// partials are merged in.
func argBetter(op AggOp, v float64, id uint64, best float64, bestID uint64) bool {
	if v == best {
		return id < bestID
	}
	if op == OpArgMax || op == OpArgMaxRatio {
		return v > best
	}
	return v < best
}

func updateArg(cell *Cell, op AggOp, id uint64, v float64) {
	if !cell.ArgSet || argBetter(op, v, id, cell.ArgVal, cell.ArgKey) {
		cell.ArgKey, cell.ArgVal, cell.ArgSet = id, v, true
	}
}

// dimLookupMap returns (and caches) the key -> column-value map for a
// dimension join. Dimension tables are frozen, so the cache never goes
// stale.
func (ex *Executor) dimLookupMap(dj DimJoin) (map[uint64]string, error) {
	if m, ok := ex.dimCache[dj]; ok {
		return m, nil
	}
	if ex.dims == nil {
		return nil, fmt.Errorf("query: dimension join against %q but executor has no dimension store", dj.Table)
	}
	tab, err := ex.dims.Table(dj.Table)
	if err != nil {
		return nil, err
	}
	m := make(map[uint64]string, tab.Len())
	for _, k := range tab.Keys() {
		v, ok := tab.Lookup(k, dj.Column)
		if !ok {
			return nil, fmt.Errorf("query: dimension table %q has no column %q", dj.Table, dj.Column)
		}
		m[k] = v
	}
	ex.dimCache[dj] = m
	return m, nil
}
