package query

import (
	"math"
	"sort"
)

// GroupKey identifies one result group. For plain attribute group-bys only I
// is set; for dimension-joined group-bys only S is set.
type GroupKey struct {
	I int64
	S string
}

// Less orders keys deterministically (string part first, then integer).
func (k GroupKey) Less(o GroupKey) bool {
	if k.S != o.S {
		return k.S < o.S
	}
	return k.I < o.I
}

// Cell is the mergeable accumulator for one aggregate within one group.
type Cell struct {
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
	ArgKey uint64
	ArgVal float64
	ArgSet bool
}

// Partial is the mergeable per-partition (or per-node) query result.
type Partial struct {
	// QueryID echoes Query.ID.
	QueryID uint64
	// NumAggs is the aggregate arity (len(Query.Aggs)).
	NumAggs int
	// Groups maps group keys to accumulator rows.
	Groups map[GroupKey][]Cell
	// gen counts Resets, so executor-side caches of Groups rows can detect
	// that a pooled partial was recycled for a new scan round.
	gen uint64
	// slabs are the backing arrays accumulator rows are carved from: rows
	// fill slabs[cur] from offset used, then move on to the next slab,
	// appending a bigger one when none is left. Reset rewinds to the first
	// slab and keeps them all, so a pooled partial that sees the same
	// groups round after round stops allocating after the first. Every
	// slab keeps length zero — only its capacity is used — so stale row
	// contents never take part in a reflect.DeepEqual of two partials, and
	// slab sizes depend only on how many rows were made, so two partials
	// with equal groups compare equal however they were filled.
	slabs [][]Cell
	cur   int
	used  int
}

// maxRetainedCells caps the largest row slab (about 3.5 MB) a partial keeps
// across Reset.
const maxRetainedCells = 1 << 16

// NewPartial returns an empty partial for a query.
func NewPartial(q *Query) *Partial {
	return &Partial{QueryID: q.ID, NumAggs: len(q.Aggs), Groups: make(map[GroupKey][]Cell)}
}

// Reset re-initializes p for query q, retaining the group map's storage so
// pooled partials can be reused across scan rounds without reallocating.
func (p *Partial) Reset(q *Query) {
	p.QueryID = q.ID
	p.NumAggs = len(q.Aggs)
	p.gen++
	p.cur, p.used = 0, 0
	if k := len(p.slabs); k > 0 && cap(p.slabs[k-1]) > maxRetainedCells {
		p.slabs = nil // one huge result must not pin its rows for good
	}
	if p.Groups == nil {
		p.Groups = make(map[GroupKey][]Cell)
		return
	}
	clear(p.Groups)
}

// cells returns (creating if needed) the accumulator row for key.
func (p *Partial) cells(key GroupKey) []Cell {
	if c, ok := p.Groups[key]; ok {
		return c
	}
	n := p.NumAggs
	for p.cur < len(p.slabs) && p.used+n > cap(p.slabs[p.cur]) {
		p.cur, p.used = p.cur+1, 0
	}
	if p.cur == len(p.slabs) {
		size := n // a global query's single row wastes nothing
		if p.cur > 0 {
			size = max(size, 2*cap(p.slabs[p.cur-1]))
		}
		p.slabs = append(p.slabs, make([]Cell, 0, size))
	}
	c := p.slabs[p.cur][p.used : p.used+n : p.used+n]
	p.used += n
	for i := range c {
		c[i] = Cell{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	p.Groups[key] = c
	return c
}

// mergeCell folds src into dst for aggregate expression a.
func mergeCell(dst *Cell, src *Cell, op AggOp) {
	dst.Count += src.Count
	dst.Sum += src.Sum
	if src.Min < dst.Min {
		dst.Min = src.Min
	}
	if src.Max > dst.Max {
		dst.Max = src.Max
	}
	if src.ArgSet {
		updateArg(dst, op, src.ArgKey, src.ArgVal)
	}
}

// Merge folds other into p. Both partials must stem from the same query.
func (p *Partial) Merge(other *Partial, q *Query) {
	for key, src := range other.Groups {
		dst := p.cells(key)
		for i := range src {
			mergeCell(&dst[i], &src[i], q.Aggs[i].Op)
		}
	}
}

// ResultRow is one finalized result group.
type ResultRow struct {
	Key GroupKey
	// Values holds one finalized value per aggregate projection, followed
	// by the derived ratio columns. Arg ops yield float64(entity id),
	// exact for ids below 2^53.
	Values []float64
}

// Result is a finalized query result.
type Result struct {
	QueryID uint64
	Rows    []ResultRow
	// Incomplete marks a degraded scatter/gather result: at least one
	// storage node's partial is missing, so aggregates cover only part of
	// the Analytics Matrix. Single-node results leave it false.
	Incomplete bool
	// CoveredNodes / TotalNodes report scatter coverage when the result
	// came from a multi-node coordinator (both zero otherwise).
	CoveredNodes int
	TotalNodes   int
	// ReplicaShards counts the shards whose partial was answered by a
	// follower replica (freshness-bounded reads) instead of the primary.
	ReplicaShards int
}

// Finalize converts the merged partial into ordered result rows, resolving
// averages, empty-group min/max, derived ratios and the limit.
func (p *Partial) Finalize(q *Query) *Result {
	res := &Result{QueryID: p.QueryID}
	keys := make([]GroupKey, 0, len(p.Groups))
	for k := range p.Groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	if q.Limit > 0 && len(keys) > q.Limit {
		keys = keys[:q.Limit]
	}
	for _, k := range keys {
		cells := p.Groups[k]
		row := ResultRow{Key: k, Values: make([]float64, 0, len(cells)+len(q.Derived))}
		for i, c := range cells {
			row.Values = append(row.Values, finalizeCell(&c, q.Aggs[i].Op))
		}
		for _, r := range q.Derived {
			den := row.Values[r.Den]
			if den == 0 {
				row.Values = append(row.Values, 0)
			} else {
				row.Values = append(row.Values, row.Values[r.Num]/den)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func finalizeCell(c *Cell, op AggOp) float64 {
	switch op {
	case OpCount:
		return float64(c.Count)
	case OpSum:
		return c.Sum
	case OpAvg:
		if c.Count == 0 {
			return 0
		}
		return c.Sum / float64(c.Count)
	case OpMin:
		if c.Count == 0 {
			return 0
		}
		return c.Min
	case OpMax:
		if c.Count == 0 {
			return 0
		}
		return c.Max
	default: // arg ops
		if !c.ArgSet {
			return 0
		}
		return float64(c.ArgKey)
	}
}
