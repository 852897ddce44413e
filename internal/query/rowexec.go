package query

import (
	"fmt"
	"math"

	"repro/internal/dimension"
	"repro/internal/schema"
	"repro/internal/vec"
)

// RowEvaluator evaluates queries record-at-a-time, for row-organized stores
// (the baseline engines of §5.3). It is semantically identical to the
// columnar Executor — the baselines and AIM must return the same answers —
// but pays the row-store stride the paper describes.
type RowEvaluator struct {
	sch      *schema.Schema
	dims     *dimension.Store
	dimCache map[DimJoin]map[uint64]string
}

// NewRowEvaluator returns an evaluator bound to a schema and optional
// dimension store.
func NewRowEvaluator(sch *schema.Schema, dims *dimension.Store) *RowEvaluator {
	return &RowEvaluator{sch: sch, dims: dims, dimCache: make(map[DimJoin]map[uint64]string)}
}

// evalPredicate applies one predicate to a record.
func (re *RowEvaluator) evalPredicate(p Predicate, rec []uint64) bool {
	bits := rec[p.Attr]
	switch re.sch.Attrs[p.Attr].Type {
	case schema.TypeFloat64:
		return cmpFloat(math.Float64frombits(bits), p.Op, math.Float64frombits(p.Bits))
	case schema.TypeUint64, schema.TypeDictString:
		return cmpUint(bits, p.Op, p.Bits)
	default:
		return cmpInt(int64(bits), p.Op, int64(p.Bits))
	}
}

// Matches reports whether the record satisfies the query's DNF filter.
func (re *RowEvaluator) Matches(q *Query, rec []uint64) bool {
	if len(q.Where) == 0 {
		return true
	}
	for _, c := range q.Where {
		ok := true
		for _, p := range c {
			if !re.evalPredicate(p, rec) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// AddRecord folds one record into the partial if it matches the filter.
func (re *RowEvaluator) AddRecord(q *Query, rec []uint64, p *Partial) error {
	if !re.Matches(q, rec) {
		return nil
	}
	var key GroupKey
	if q.GroupBy >= 0 {
		gv := rec[q.GroupBy]
		switch {
		case q.GroupDim != nil:
			m, err := re.dimLookupMap(*q.GroupDim)
			if err != nil {
				return err
			}
			s, ok := m[gv]
			if !ok {
				return nil // inner-join semantics
			}
			key.S = s
		case q.GroupDictNames:
			s, ok := re.sch.Dict(q.GroupBy).String(gv)
			if !ok {
				return nil
			}
			key.S = s
		default:
			key.I = int64(gv)
		}
	}
	cells := p.cells(key)
	id := rec[schema.SlotEntityID]
	for i, a := range q.Aggs {
		cell := &cells[i]
		cell.Count++
		switch a.Op {
		case OpCount:
		case OpSum, OpAvg:
			cell.Sum += slotVal(rec[a.Attr], re.sch.Attrs[a.Attr].Type)
		case OpMin:
			if v := slotVal(rec[a.Attr], re.sch.Attrs[a.Attr].Type); v < cell.Min {
				cell.Min = v
			}
		case OpMax:
			if v := slotVal(rec[a.Attr], re.sch.Attrs[a.Attr].Type); v > cell.Max {
				cell.Max = v
			}
		default:
			v := slotVal(rec[a.Attr], re.sch.Attrs[a.Attr].Type)
			if a.Op == OpArgMinRatio || a.Op == OpArgMaxRatio {
				den := slotVal(rec[a.Attr2], re.sch.Attrs[a.Attr2].Type)
				if den == 0 {
					continue
				}
				v /= den
			}
			updateArg(cell, a.Op, id, v)
		}
	}
	return nil
}

func (re *RowEvaluator) dimLookupMap(dj DimJoin) (map[uint64]string, error) {
	if m, ok := re.dimCache[dj]; ok {
		return m, nil
	}
	if re.dims == nil {
		return nil, fmt.Errorf("query: dimension join against %q but evaluator has no dimension store", dj.Table)
	}
	tab, err := re.dims.Table(dj.Table)
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
	re.dimCache[dj] = m
	return m, nil
}

func slotVal(bits uint64, t schema.Type) float64 {
	switch t {
	case schema.TypeFloat64:
		return math.Float64frombits(bits)
	case schema.TypeUint64:
		return float64(bits)
	default:
		return float64(int64(bits))
	}
}

func cmpInt(a int64, op vec.CmpOp, b int64) bool {
	switch op {
	case vec.Lt:
		return a < b
	case vec.Le:
		return a <= b
	case vec.Gt:
		return a > b
	case vec.Ge:
		return a >= b
	case vec.Eq:
		return a == b
	default:
		return a != b
	}
}

func cmpUint(a uint64, op vec.CmpOp, b uint64) bool {
	switch op {
	case vec.Lt:
		return a < b
	case vec.Le:
		return a <= b
	case vec.Gt:
		return a > b
	case vec.Ge:
		return a >= b
	case vec.Eq:
		return a == b
	default:
		return a != b
	}
}

func cmpFloat(a float64, op vec.CmpOp, b float64) bool {
	switch op {
	case vec.Lt:
		return a < b
	case vec.Le:
		return a <= b
	case vec.Gt:
		return a > b
	case vec.Ge:
		return a >= b
	case vec.Eq:
		return a == b
	default:
		return a != b
	}
}
