package query

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Wire codecs for queries and partial results. The RTA node ships encoded
// queries to every storage node and merges the encoded partials it receives
// back (§4.2). The format is a straightforward little-endian binary layout;
// both sides of the protocol live in this package so the layout stays
// private.

type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)    { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) str(s string) {
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

// Encoded sizes the decoders check wire counts against: a predicate, a cell,
// and a group key with an empty string.
const (
	predicateBytes = 4 + 1 + 8
	cellBytes      = 8 + 8 + 8 + 8 + 8 + 8 + 1
	groupKeyBytes  = 8 + 2
)

// left returns how many bytes remain unread.
func (r *rbuf) left() int { return len(r.b) - r.off }

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("query: truncated frame at offset %d", r.off)
	}
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) str() string {
	n := int(r.u16())
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// EncodeQuery serializes q.
func EncodeQuery(q *Query) []byte {
	var w wbuf
	w.u64(q.ID)
	w.u8(q.Template)
	w.u16(uint16(len(q.Where)))
	for _, c := range q.Where {
		w.u16(uint16(len(c)))
		for _, p := range c {
			w.u32(uint32(p.Attr))
			w.u8(uint8(p.Op))
			w.u64(p.Bits)
		}
	}
	w.u16(uint16(len(q.Aggs)))
	for _, a := range q.Aggs {
		w.u8(uint8(a.Op))
		w.u32(uint32(a.Attr))
		w.u32(uint32(a.Attr2))
	}
	w.i64(int64(q.GroupBy))
	if q.GroupDim != nil {
		w.u8(1)
		w.str(q.GroupDim.Table)
		w.str(q.GroupDim.Column)
	} else {
		w.u8(0)
	}
	if q.GroupDictNames {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u16(uint16(len(q.Derived)))
	for _, d := range q.Derived {
		w.u32(uint32(d.Num))
		w.u32(uint32(d.Den))
	}
	w.u32(uint32(q.Limit))
	w.i64(q.Deadline)
	return w.b
}

// DecodeQuery parses a query encoded by EncodeQuery.
func DecodeQuery(b []byte) (*Query, error) {
	r := rbuf{b: b}
	q := &Query{ID: r.u64(), Template: r.u8()}
	// Every loop stops at the first short read: the counts come off the
	// wire, and a truncated frame must not buy count-many failing reads.
	nc := int(r.u16())
	for i := 0; i < nc && r.err == nil; i++ {
		np := int(r.u16())
		if np > r.left()/predicateBytes {
			r.fail()
			break
		}
		c := make(Conjunct, 0, np)
		for j := 0; j < np; j++ {
			c = append(c, Predicate{
				Attr: int(r.u32()),
				Op:   vec.CmpOp(r.u8()),
				Bits: r.u64(),
			})
		}
		q.Where = append(q.Where, c)
	}
	na := int(r.u16())
	for i := 0; i < na && r.err == nil; i++ {
		q.Aggs = append(q.Aggs, AggExpr{
			Op:    AggOp(r.u8()),
			Attr:  int(r.u32()),
			Attr2: int(r.u32()),
		})
	}
	q.GroupBy = int(r.i64())
	if r.u8() == 1 {
		q.GroupDim = &DimJoin{Table: r.str(), Column: r.str()}
	}
	q.GroupDictNames = r.u8() == 1
	nd := int(r.u16())
	for i := 0; i < nd && r.err == nil; i++ {
		q.Derived = append(q.Derived, Ratio{Num: int(r.u32()), Den: int(r.u32())})
	}
	q.Limit = int(r.u32())
	q.Deadline = r.i64()
	if r.err != nil {
		return nil, r.err
	}
	return q, nil
}

// EncodePartial serializes p.
func EncodePartial(p *Partial) []byte {
	var w wbuf
	w.u64(p.QueryID)
	w.u32(uint32(p.NumAggs))
	w.u32(uint32(len(p.Groups)))
	for key, cells := range p.Groups {
		w.i64(key.I)
		w.str(key.S)
		for _, c := range cells {
			w.i64(c.Count)
			w.f64(c.Sum)
			w.f64(c.Min)
			w.f64(c.Max)
			w.u64(c.ArgKey)
			w.f64(c.ArgVal)
			if c.ArgSet {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
	}
	return w.b
}

// DecodePartial parses a partial encoded by EncodePartial.
func DecodePartial(b []byte) (*Partial, error) {
	r := rbuf{b: b}
	p := &Partial{QueryID: r.u64()}
	p.NumAggs = int(r.u32())
	if p.NumAggs < 0 || p.NumAggs > 1<<16 {
		return nil, fmt.Errorf("query: implausible aggregate arity %d", p.NumAggs)
	}
	ng := int(r.u32())
	// The group count sizes the map, so check it against what the frame can
	// hold before trusting it.
	if ng > r.left()/(groupKeyBytes+p.NumAggs*cellBytes) {
		r.fail()
		return nil, r.err
	}
	p.Groups = make(map[GroupKey][]Cell, ng)
	for i := 0; i < ng; i++ {
		key := GroupKey{I: r.i64(), S: r.str()}
		cells := make([]Cell, p.NumAggs)
		for j := range cells {
			cells[j] = Cell{
				Count:  r.i64(),
				Sum:    r.f64(),
				Min:    r.f64(),
				Max:    r.f64(),
				ArgKey: r.u64(),
				ArgVal: r.f64(),
				ArgSet: r.u8() == 1,
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Groups[key] = cells
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
