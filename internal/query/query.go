// Package query implements AIM's RTA query model and its shared-scan
// execution over ColumnMap buckets (§2.3, §4.7).
//
// A Query is a SQL-like aggregation over the Analytics Matrix: a DNF filter,
// a list of aggregate projections, an optional group-by (optionally mapped
// through a replicated dimension table — the paper's inlined joins), derived
// ratio columns and a limit. Queries are executed bucket-at-a-time so that a
// whole batch of queries shares one scan pass (Algorithm 5), producing
// mergeable Partials; the stateless RTA node merges the partials from every
// storage partition and finalizes them into a Result.
//
// Batches are fused before scanning: CompileBatch deduplicates structurally
// identical predicates across the batch and Executor.ProcessBucketBatch
// evaluates each distinct predicate once per bucket into a cached mask slab,
// assembling every query's filter from the shared masks (see BatchPlan).
// Grouped queries run columnar too (group.go): the group column is mapped to
// a dense group-id vector once per bucket per distinct group spec, and one
// typed vec kernel per aggregate folds it into dense accumulators.
//
// Thread confinement: an Executor is confined to a single scan goroutine.
// It owns mutable scratch state (bitmask buffers, the batch mask and
// group-id slabs, group tables, the dimension lookup cache) that is reused
// across buckets without synchronization — create one Executor per goroutine and never share it.
// Schemas, dimension stores, Queries and compiled BatchPlans are immutable
// during a scan and safe to share between executors.
package query

import (
	"fmt"
	"math"

	"repro/internal/schema"
	"repro/internal/vec"
)

// PredString builds an equality/inequality predicate on a dictionary-encoded
// string attribute. A value absent from the dictionary yields a predicate
// that matches nothing (Eq) or everything stored (Ne), since no record can
// carry an unknown code.
func PredString(sch *schema.Schema, attr int, op vec.CmpOp, v string) Predicate {
	code := ^uint64(0) // sentinel no record holds
	if d := sch.Dict(attr); d != nil {
		if c, ok := d.Lookup(v); ok {
			code = c
		}
	}
	return Predicate{Attr: attr, Op: op, Bits: code}
}

// AggOp is an aggregate projection operator.
type AggOp uint8

const (
	// OpCount counts matching records.
	OpCount AggOp = iota
	// OpSum sums an attribute.
	OpSum
	// OpAvg averages an attribute.
	OpAvg
	// OpMin takes the minimum of an attribute.
	OpMin
	// OpMax takes the maximum of an attribute.
	OpMax
	// OpArgMax reports the entity id holding the maximum attribute value
	// (Q6's "report the entity-ids of the records with the longest call").
	OpArgMax
	// OpArgMin reports the entity id holding the minimum attribute value.
	OpArgMin
	// OpArgMinRatio reports the entity id minimizing Attr/Attr2 over
	// records where Attr2 > 0 (Q7's "smallest flat rate").
	OpArgMinRatio
	// OpArgMaxRatio reports the entity id maximizing Attr/Attr2.
	OpArgMaxRatio
)

// String implements fmt.Stringer.
func (op AggOp) String() string {
	switch op {
	case OpCount:
		return "count"
	case OpSum:
		return "sum"
	case OpAvg:
		return "avg"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpArgMax:
		return "argmax"
	case OpArgMin:
		return "argmin"
	case OpArgMinRatio:
		return "argmin-ratio"
	case OpArgMaxRatio:
		return "argmax-ratio"
	default:
		return fmt.Sprintf("AggOp(%d)", uint8(op))
	}
}

// AggExpr is one aggregate projection.
type AggExpr struct {
	Op AggOp
	// Attr is the aggregated attribute (unused for OpCount).
	Attr int
	// Attr2 is the denominator attribute for the ratio arg ops.
	Attr2 int
}

// Predicate is a comparison of one attribute against a constant. Bits holds
// the operand in the attribute's value representation (int64/uint64 bits or
// float64 bits); use PredInt / PredFloat to construct it.
type Predicate struct {
	Attr int
	Op   vec.CmpOp
	Bits uint64
}

// PredInt builds a predicate comparing an integer-typed attribute to v.
func PredInt(attr int, op vec.CmpOp, v int64) Predicate {
	return Predicate{Attr: attr, Op: op, Bits: uint64(v)}
}

// PredFloat builds a predicate comparing a float-typed attribute to v.
func PredFloat(attr int, op vec.CmpOp, v float64) Predicate {
	return Predicate{Attr: attr, Op: op, Bits: math.Float64bits(v)}
}

// Conjunct is an AND of predicates.
type Conjunct []Predicate

// DimJoin maps a group-by key attribute through a replicated dimension
// table, producing string group keys (e.g. zip -> RegionInfo.city).
type DimJoin struct {
	Table  string
	Column string
}

// Ratio is a derived output column: Values[Num] / Values[Den] of the
// finalized aggregates (Q3's SUM/SUM cost ratio).
type Ratio struct {
	Num, Den int
}

// Query is one RTA query.
type Query struct {
	// ID identifies the query within a batch/wire exchange.
	ID uint64
	// Template tags the workload template the query instantiates (1..7 for
	// the paper's Q1..Q7; 0 = untemplated). It only feeds per-template
	// latency metrics and never affects execution.
	Template uint8
	// Where is a DNF filter: OR over conjuncts, AND within. Empty matches
	// every record.
	Where []Conjunct
	// Aggs are the aggregate projections (at least one).
	Aggs []AggExpr
	// GroupBy is the grouping attribute, or -1 for a single global group.
	GroupBy int
	// GroupDim optionally maps group keys through a dimension table.
	GroupDim *DimJoin
	// GroupDictNames resolves group keys of a dictionary-encoded string
	// attribute back to strings (mutually exclusive with GroupDim).
	GroupDictNames bool
	// Derived appends ratio columns computed from finalized aggregates.
	Derived []Ratio
	// Limit caps the number of result rows (0 = unlimited). Rows are
	// key-ordered before the limit is applied.
	Limit int
	// Deadline is an absolute wall-clock bound (UnixNano, 0 = none). A
	// storage node evicts the query from its next scan round once the
	// deadline passes, answering with a typed deadline error — the RTA
	// side of graceful degradation under overload.
	Deadline int64
}

// Validate checks the query against a schema.
func (q *Query) Validate(sch *schema.Schema) error {
	if len(q.Aggs) == 0 {
		return fmt.Errorf("query %d: no aggregate projections", q.ID)
	}
	checkAttr := func(a int, what string) error {
		if a < 0 || a >= sch.NumAttrs() {
			return fmt.Errorf("query %d: %s attribute %d out of range [0,%d)", q.ID, what, a, sch.NumAttrs())
		}
		return nil
	}
	for _, c := range q.Where {
		if len(c) == 0 {
			return fmt.Errorf("query %d: empty conjunct", q.ID)
		}
		for _, p := range c {
			if err := checkAttr(p.Attr, "predicate"); err != nil {
				return err
			}
			if sch.Attrs[p.Attr].Type == schema.TypeDictString && p.Op != vec.Eq && p.Op != vec.Ne {
				return fmt.Errorf("query %d: string attribute %q only supports == and !=",
					q.ID, sch.Attrs[p.Attr].Name)
			}
		}
	}
	for _, a := range q.Aggs {
		if a.Op != OpCount {
			if err := checkAttr(a.Attr, "aggregate"); err != nil {
				return err
			}
		}
		if a.Op == OpArgMinRatio || a.Op == OpArgMaxRatio {
			if err := checkAttr(a.Attr2, "ratio denominator"); err != nil {
				return err
			}
		}
	}
	if q.GroupBy >= 0 {
		if err := checkAttr(q.GroupBy, "group-by"); err != nil {
			return err
		}
		if q.GroupDictNames {
			if q.GroupDim != nil {
				return fmt.Errorf("query %d: GroupDictNames and GroupDim are mutually exclusive", q.ID)
			}
			if sch.Attrs[q.GroupBy].Type != schema.TypeDictString {
				return fmt.Errorf("query %d: GroupDictNames on non-string attribute %q",
					q.ID, sch.Attrs[q.GroupBy].Name)
			}
		}
	} else if q.GroupDim != nil || q.GroupDictNames {
		return fmt.Errorf("query %d: group-key mapping without GroupBy", q.ID)
	}
	for _, r := range q.Derived {
		if r.Num < 0 || r.Num >= len(q.Aggs) || r.Den < 0 || r.Den >= len(q.Aggs) {
			return fmt.Errorf("query %d: derived ratio references aggregate out of range", q.ID)
		}
	}
	if q.Limit < 0 {
		return fmt.Errorf("query %d: negative limit", q.ID)
	}
	return nil
}
