package query

import (
	"fmt"
	"sort"

	"repro/internal/columnmap"
	"repro/internal/schema"
	"repro/internal/vec"
)

// BatchPlan is the compiled form of one shared-scan query batch. Compiling
// fuses the batch's filters: structurally identical predicates that appear
// in several queries (the common case for the Huawei templates, which share
// their subscription-type / city / value-segment filters) are deduplicated
// and evaluated exactly once per bucket into the executor's mask slab; each
// query's DNF accumulator is then assembled from the cached masks with
// AND/OR word operations instead of re-reading the columns.
//
// Two further fusions happen at compile time:
//
//   - Complement sharing: a predicate whose complement on the same attribute
//     and operand is already in the plan (a > v vs a <= v, a == v vs a != v)
//     is not evaluated against the column at all — its mask is derived by
//     bit-complementing the twin's cached mask. Float attributes are
//     excluded (NaN breaks comparison complements).
//   - Column grouping: distinct predicates are ordered by attribute, so all
//     predicates over one column are evaluated back-to-back while the column
//     is hot in cache, and columns no query references are never read.
//
// A BatchPlan is immutable after CompileBatch and safe to share across scan
// goroutines; all mutable evaluation state lives in each goroutine's
// Executor.
type BatchPlan struct {
	queries []*Query
	preds   []Predicate // distinct predicates, ordered by (Attr, Bits, Op)
	twin    []int32     // per predicate: slab index of the complement twin, or -1
	progs   []queryProg
	dupOf   []int32 // per query: index of the representative duplicate (== own index if none)
	// groups are the batch's distinct group specs and groupOf maps each
	// query to its spec (-1 for global queries): the executor computes one
	// gid vector per spec per bucket and every query with that spec shares
	// it.
	groups  []groupSpec
	groupOf []int32
}

// queryProg is one query's filter program over the plan's predicate slab.
type queryProg struct {
	matchAll bool      // empty WHERE: every record matches
	conjs    [][]int32 // DNF: OR over conjuncts, AND over slab indices within
}

// complementOp returns the complement comparison (NOT (a op v) == a op' v)
// and whether one exists. Complements hold exactly for total orders; the
// caller must exclude float attributes (NaN compares false on both sides).
func complementOp(op vec.CmpOp) (vec.CmpOp, bool) {
	switch op {
	case vec.Lt:
		return vec.Ge, true
	case vec.Le:
		return vec.Gt, true
	case vec.Gt:
		return vec.Le, true
	case vec.Ge:
		return vec.Lt, true
	case vec.Eq:
		return vec.Ne, true
	case vec.Ne:
		return vec.Eq, true
	default:
		return op, false
	}
}

// CompileBatch compiles a query batch into a fused scan plan. Predicate
// attributes are range-checked here once, so the per-bucket path can skip
// validation. Queries are referenced, not copied; they must not be mutated
// while the plan is in use.
func CompileBatch(sch *schema.Schema, queries []*Query) (*BatchPlan, error) {
	plan := &BatchPlan{queries: queries, progs: make([]queryProg, len(queries))}
	index := make(map[Predicate]int32)
	plan.groupOf = make([]int32, len(queries))
	groupIndex := make(map[groupSpec]int32)
	for qi, q := range queries {
		plan.groupOf[qi] = -1
		if q.GroupBy >= 0 {
			spec := specOf(q)
			slot, ok := groupIndex[spec]
			if !ok {
				slot = int32(len(plan.groups))
				plan.groups = append(plan.groups, spec)
				groupIndex[spec] = slot
			}
			plan.groupOf[qi] = slot
		}
		prog := &plan.progs[qi]
		if len(q.Where) == 0 {
			prog.matchAll = true
			continue
		}
		prog.conjs = make([][]int32, len(q.Where))
		for ci, c := range q.Where {
			refs := make([]int32, len(c))
			for pi, pr := range c {
				if pr.Attr < 0 || pr.Attr >= sch.NumAttrs() {
					return nil, fmt.Errorf("query %d: predicate attribute %d out of range [0,%d)",
						q.ID, pr.Attr, sch.NumAttrs())
				}
				id, ok := index[pr]
				if !ok {
					id = int32(len(plan.preds))
					plan.preds = append(plan.preds, pr)
					index[pr] = id
				}
				refs[pi] = id
			}
			prog.conjs[ci] = refs
		}
	}

	// Order the distinct predicates by (Attr, Bits, Op) for column locality
	// and so that a complement pair lands adjacent with the lower CmpOp
	// first, then remap the programs through the permutation.
	order := make([]int32, len(plan.preds))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := plan.preds[order[a]], plan.preds[order[b]]
		if pa.Attr != pb.Attr {
			return pa.Attr < pb.Attr
		}
		if pa.Bits != pb.Bits {
			return pa.Bits < pb.Bits
		}
		return pa.Op < pb.Op
	})
	perm := make([]int32, len(plan.preds)) // old slab index -> new
	sorted := make([]Predicate, len(plan.preds))
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
		sorted[newID] = plan.preds[oldID]
	}
	plan.preds = sorted
	for qi := range plan.progs {
		for _, refs := range plan.progs[qi].conjs {
			for i, r := range refs {
				refs[i] = perm[r]
			}
		}
	}

	// Mark complement twins: a predicate derives its mask from an earlier
	// twin with the complementary operator on the same attribute/operand.
	// Lt<Le<Gt<Ge<Eq<Ne guarantees exactly one side of each pair can point
	// backwards, so derivation never chains.
	plan.twin = make([]int32, len(plan.preds))
	for i := range plan.twin {
		plan.twin[i] = -1
	}
	for i, pr := range plan.preds {
		if sch.Attrs[pr.Attr].Type == schema.TypeFloat64 {
			continue
		}
		cop, ok := complementOp(pr.Op)
		if !ok || cop >= pr.Op {
			continue
		}
		if tw, ok := index[Predicate{Attr: pr.Attr, Op: cop, Bits: pr.Bits}]; ok {
			plan.twin[i] = perm[tw]
		}
	}

	// Detect duplicate queries: under concurrent clients the coordinator
	// routinely batches several instances of the same template with the same
	// parameters (Q3 has no parameters at all). Their partials are
	// necessarily identical, so only the first instance is scanned and
	// FoldDuplicates copies the result to the rest.
	plan.dupOf = make([]int32, len(queries))
	seen := make(map[string]int32, len(queries))
	for qi, q := range queries {
		key := canonicalKey(&plan.progs[qi], q)
		if rep, ok := seen[key]; ok {
			plan.dupOf[qi] = rep
		} else {
			seen[key] = int32(qi)
			plan.dupOf[qi] = int32(qi)
		}
	}
	return plan, nil
}

// canonicalKey renders the parts of a compiled query that determine its
// partial: the filter program in canonical order (conjunct predicate sets
// sorted, then conjuncts sorted) plus aggregates and grouping. Derived
// ratios and Limit are Finalize-time only and deliberately excluded.
func canonicalKey(prog *queryProg, q *Query) string {
	var sb []byte
	if prog.matchAll {
		sb = append(sb, '*')
	} else {
		conjs := make([]string, len(prog.conjs))
		for ci, refs := range prog.conjs {
			s := append([]int32(nil), refs...)
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			conjs[ci] = fmt.Sprint(s)
		}
		sort.Strings(conjs)
		sb = append(sb, fmt.Sprint(conjs)...)
	}
	sb = append(sb, '|')
	for _, a := range q.Aggs {
		sb = append(sb, fmt.Sprintf("%d:%d:%d;", a.Op, a.Attr, a.Attr2)...)
	}
	sb = append(sb, fmt.Sprintf("|g%d|d%v", q.GroupBy, q.GroupDictNames)...)
	if q.GroupDim != nil {
		sb = append(sb, fmt.Sprintf("|j%s.%s", q.GroupDim.Table, q.GroupDim.Column)...)
	}
	return string(sb)
}

// Queries returns the batch the plan was compiled from.
func (bp *BatchPlan) Queries() []*Query { return bp.queries }

// NumPredicates returns the number of distinct predicates the plan holds —
// the per-bucket slab width in masks.
func (bp *BatchPlan) NumPredicates() int { return len(bp.preds) }

// NumEvaluated returns how many distinct predicates are evaluated against
// columns per bucket; the rest are derived by complementing a twin's mask.
func (bp *BatchPlan) NumEvaluated() int {
	n := 0
	for _, tw := range bp.twin {
		if tw < 0 {
			n++
		}
	}
	return n
}

// NumDuplicates returns how many queries in the batch are exact duplicates
// of an earlier query and therefore skipped during scanning.
func (bp *BatchPlan) NumDuplicates() int {
	n := 0
	for qi, rep := range bp.dupOf {
		if rep != int32(qi) {
			n++
		}
	}
	return n
}

// FoldDuplicates copies each representative's partial into its duplicates'
// partials. Call it once after the last bucket of a scan pass; the per-
// bucket path leaves duplicate queries' partials untouched.
func (bp *BatchPlan) FoldDuplicates(partials []*Partial) {
	for qi, rep := range bp.dupOf {
		if rep != int32(qi) {
			partials[qi].Merge(partials[rep], bp.queries[qi])
		}
	}
}

// ProcessBucketBatch evaluates the whole compiled batch over one bucket,
// folding query i's matches into partials[i]. It is the fused counterpart
// of calling ProcessBucket once per query: every distinct predicate is
// evaluated (or complement-derived) once into the executor's mask slab, and
// each query's DNF is assembled from the cached masks. Duplicate queries
// are not scanned at all — call plan.FoldDuplicates(partials) once after
// the pass to fill them in.
//
// The steady-state path performs no heap allocations: the mask and gid
// slabs, scratch masks, group tables and dense accumulators are pooled in
// the executor, sized on first use, and group rows come from the partial's
// own slab.
func (ex *Executor) ProcessBucketBatch(b columnmap.Bucket, plan *BatchPlan, partials []*Partial) error {
	if len(partials) != len(plan.queries) {
		return fmt.Errorf("query: batch has %d queries but %d partials", len(plan.queries), len(partials))
	}
	n := b.N
	if n == 0 {
		return nil
	}
	ex.ensureScratch(n)
	w := vec.MaskWords(n)
	slab := ex.ensureSlab(len(plan.preds) * w)
	ex.beginBucket(len(plan.groups), n)
	if len(ex.grows) < len(plan.queries) {
		ex.grows = append(ex.grows, make([]groupRows, len(plan.queries)-len(ex.grows))...)
	}

	// Fill the mask slab: one mask per distinct predicate, columns touched
	// once each thanks to the (Attr, Bits, Op) ordering.
	for pi := range plan.preds {
		mask := slab[pi*w : (pi+1)*w]
		if tw := plan.twin[pi]; tw >= 0 {
			// Complement of an already-cached mask; no column read.
			vec.FillMask(mask, n)
			vec.AndNot(mask, slab[int(tw)*w:(int(tw)+1)*w])
			continue
		}
		if err := ex.evalPredicate(b, n, plan.preds[pi], mask); err != nil {
			return err
		}
	}

	// Assemble each query's accumulator from the cached masks and aggregate.
	// Duplicate queries are skipped; FoldDuplicates materializes them after
	// the pass.
	for qi, q := range plan.queries {
		if plan.dupOf[qi] != int32(qi) {
			continue
		}
		prog := &plan.progs[qi]
		acc := ex.acc
		switch {
		case prog.matchAll:
			vec.FillMask(acc, n)
		case len(prog.conjs) == 1:
			// Single conjunct: AND directly into the accumulator; a single
			// predicate aliases its slab mask with no copy at all.
			refs := prog.conjs[0]
			if len(refs) == 1 {
				acc = slab[int(refs[0])*w : (int(refs[0])+1)*w]
			} else {
				vec.CopyMask(acc, slab[int(refs[0])*w:(int(refs[0])+1)*w])
				for _, r := range refs[1:] {
					vec.And(acc, slab[int(r)*w:(int(r)+1)*w])
				}
			}
		default:
			vec.ZeroMask(acc)
			for _, refs := range prog.conjs {
				vec.CopyMask(ex.conj, slab[int(refs[0])*w:(int(refs[0])+1)*w])
				for _, r := range refs[1:] {
					vec.And(ex.conj, slab[int(r)*w:(int(r)+1)*w])
				}
				vec.Or(acc, ex.conj)
			}
		}
		if q.GroupBy < 0 {
			ex.aggregateGlobal(b, q, partials[qi], acc)
		} else if err := ex.aggregateGrouped(b, q, partials[qi], acc, int(plan.groupOf[qi]), &ex.grows[qi]); err != nil {
			return err
		}
	}
	return nil
}
