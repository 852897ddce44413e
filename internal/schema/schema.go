package schema

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/event"
)

// Builtin visible attribute slots present in every Analytics Matrix.
const (
	// SlotEntityID is the visible slot holding the entity id (uint64).
	SlotEntityID = 0
	// SlotLastTimestamp is the visible slot holding the timestamp of the
	// last event applied to the record (int64 milliseconds).
	SlotLastTimestamp = 1
	// numBuiltin is the number of builtin visible attributes.
	numBuiltin = 2
)

// Attr describes one visible Analytics-Matrix attribute (a scannable column).
type Attr struct {
	// Name is the unique attribute name, e.g. "calls_this_week_count".
	Name string
	// Type is the logical value type of the column.
	Type Type
	// Slot is the record slot (== column index) of the attribute.
	Slot int
	// Group is the index of the owning attribute group in Schema.Groups,
	// or -1 for builtin attributes.
	Group int
	// Agg is the aggregate the attribute materializes (meaningful only when
	// Group >= 0).
	Agg AggKind
}

// GroupSpec declares one attribute group for the Builder: a metric and a
// filter aggregated under a window by one or more aggregation functions.
type GroupSpec struct {
	// Name is the base name; attribute names default to Name + "_" + agg.
	Name string
	// Metric selects the aggregated event property.
	Metric Metric
	// Filter restricts which events the group observes.
	Filter Filter
	// Window is the aggregation window.
	Window Window
	// Aggs lists the aggregates to materialize; duplicates are rejected.
	Aggs []AggKind
	// AttrNames optionally overrides the generated attribute names; if set
	// it must be parallel to Aggs.
	AttrNames []string
}

// Group is a compiled attribute group. Its update function applies a single
// event to the group's slots in an Entity Record.
type Group struct {
	Spec GroupSpec

	// visSlots[i] is the visible slot of Spec.Aggs[i].
	visSlots []int
	// Hidden bookkeeping (see update.go for the layout).
	epochSlot  int    // tumbling: window index; count: events-in-window
	subEpochAt int    // sliding: first of Sub sub-epoch slots
	primAt     [4]int // base slot per primitive (count,sum,min,max); -1 if absent
	primSets   int    // 1 for tumbling/count windows, Sub for sliding

	// Split-phase kernels (see update.go). ingest rolls the window and
	// updates hidden primitives, reporting whether they changed;
	// materialize publishes the visible aggregate slots from the
	// primitives. materialize is pure and idempotent — running it once
	// after a run of ingests yields the same bytes as running it after
	// every ingest.
	ingest      func(rec []uint64, ev *event.Event) bool
	materialize func(rec []uint64)
}

// Update applies ev to the group's portion of rec: ingest followed by
// materialize when anything visible could have moved.
func (g *Group) Update(rec []uint64, ev *event.Event) {
	if g.ingest(rec, ev) {
		g.materialize(rec)
	}
}

// Schema is a compiled Analytics-Matrix schema.
type Schema struct {
	// Attrs are the visible attributes, in slot order. Attrs[i].Slot == i.
	Attrs []Attr
	// Groups are the compiled attribute groups.
	Groups []Group
	// Slots is the total number of record slots (visible + hidden).
	Slots int
	// VersionSlot is the hidden slot holding the record's modification
	// version, used by the storage layer's conditional writes (§4.6,
	// footnote 8). It travels with the record through delta and main.
	VersionSlot int

	byName map[string]int
	dicts  map[int]*Dict // per-attribute dictionaries for TypeDictString
}

// StaticSpec declares a segmentation attribute (§2.1): a visible column that
// is not event-driven — e.g. a dimension foreign key like zip or
// subscription type — set when the Entity Record is created and updatable
// only through explicit Puts.
type StaticSpec struct {
	Name string
	Type Type
}

// Builder accumulates group specs and compiles them into a Schema.
type Builder struct {
	statics []StaticSpec
	specs   []GroupSpec
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddGroup appends a group spec. It returns the builder for chaining.
func (b *Builder) AddGroup(spec GroupSpec) *Builder {
	b.specs = append(b.specs, spec)
	return b
}

// AddStatic appends a segmentation-attribute spec. Static attributes are
// laid out before all event-driven attributes.
func (b *Builder) AddStatic(spec StaticSpec) *Builder {
	b.statics = append(b.statics, spec)
	return b
}

// Build validates all specs, lays out record slots, compiles the per-group
// update functions and returns the resulting Schema.
func (b *Builder) Build() (*Schema, error) {
	s := &Schema{byName: make(map[string]int), dicts: make(map[int]*Dict)}
	s.Attrs = append(s.Attrs,
		Attr{Name: "entity_id", Type: TypeUint64, Slot: SlotEntityID, Group: -1},
		Attr{Name: "last_timestamp", Type: TypeInt64, Slot: SlotLastTimestamp, Group: -1},
	)

	// Static segmentation attributes come first, in declaration order.
	for _, st := range b.statics {
		slot := len(s.Attrs)
		s.Attrs = append(s.Attrs, Attr{
			Name: st.Name, Type: st.Type, Slot: slot, Group: -1,
		})
		if st.Type == TypeDictString {
			s.dicts[slot] = NewDict()
		}
	}

	// First pass: visible attributes, in declaration order.
	for gi, spec := range b.specs {
		if err := spec.Window.validate(); err != nil {
			return nil, fmt.Errorf("group %q: %w", spec.Name, err)
		}
		if len(spec.Aggs) == 0 {
			return nil, fmt.Errorf("schema: group %q has no aggregates", spec.Name)
		}
		if spec.AttrNames != nil && len(spec.AttrNames) != len(spec.Aggs) {
			return nil, fmt.Errorf("schema: group %q: %d names for %d aggregates",
				spec.Name, len(spec.AttrNames), len(spec.Aggs))
		}
		seen := make(map[AggKind]bool, len(spec.Aggs))
		g := Group{Spec: spec}
		for ai, agg := range spec.Aggs {
			if seen[agg] {
				return nil, fmt.Errorf("schema: group %q: duplicate aggregate %v", spec.Name, agg)
			}
			seen[agg] = true
			if agg == AggMin || agg == AggMax {
				if spec.Metric == MetricCount {
					return nil, fmt.Errorf("schema: group %q: %v over the count metric is meaningless", spec.Name, agg)
				}
			}
			name := fmt.Sprintf("%s_%s", spec.Name, agg)
			if spec.AttrNames != nil {
				name = spec.AttrNames[ai]
			}
			slot := len(s.Attrs)
			s.Attrs = append(s.Attrs, Attr{
				Name:  name,
				Type:  agg.resultType(spec.Metric),
				Slot:  slot,
				Group: gi,
				Agg:   agg,
			})
			g.visSlots = append(g.visSlots, slot)
		}
		s.Groups = append(s.Groups, g)
	}

	for i, a := range s.Attrs {
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate attribute name %q", a.Name)
		}
		s.byName[a.Name] = i
	}

	// Second pass: hidden slots and kernel compilation.
	next := len(s.Attrs)
	for gi := range s.Groups {
		g := &s.Groups[gi]
		next = layoutGroup(g, next)
		compileGroup(g)
	}
	s.VersionSlot = next
	next++
	s.Slots = next
	return s, nil
}

// MustBuild is Build but panics on error; intended for static schemas in
// tests and examples.
func (b *Builder) MustBuild() *Schema {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of visible attributes (scannable columns).
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// AttrIndex returns the slot of the named visible attribute, or an error.
func (s *Schema) AttrIndex(name string) (int, error) {
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("schema: unknown attribute %q", name)
	}
	return i, nil
}

// MustAttrIndex is AttrIndex but panics on unknown names.
func (s *Schema) MustAttrIndex(name string) int {
	i, err := s.AttrIndex(name)
	if err != nil {
		panic(err)
	}
	return i
}

// RecordBytes returns the record size in bytes (all slots).
func (s *Schema) RecordBytes() int { return s.Slots * 8 }

// NewRecord allocates a fresh Entity Record for the given entity.
func (s *Schema) NewRecord(entityID uint64) Record {
	rec := make(Record, s.Slots)
	rec[SlotEntityID] = entityID
	return rec
}

// Apply applies one event to rec: it stamps the last-event timestamp and
// runs every attribute group's update (ingest + materialize). This is the
// body of the paper's UPDATE_MATRIX inner loop (Algorithm 1, steps 4-5).
func (s *Schema) Apply(rec Record, ev *event.Event) {
	rec[SlotLastTimestamp] = uint64(ev.Timestamp)
	for i := range s.Groups {
		s.Groups[i].Update(rec, ev)
	}
}

// ApplyIngest applies one event's ingest phase only: the last-event
// timestamp is stamped and every group's primitives are updated, but no
// visible aggregate is published. dirty, when non-nil, must hold
// GroupMaskWords() words; the bit of each group whose primitives changed is
// OR-ed in, so a caller can batch several ingests and then materialize only
// what moved. The record must not be read through visible aggregate slots
// until MaterializeAll (or MaterializeDirty covering all dirty groups) has
// run.
func (s *Schema) ApplyIngest(rec Record, ev *event.Event, dirty []uint64) {
	rec[SlotLastTimestamp] = uint64(ev.Timestamp)
	if dirty == nil {
		for i := range s.Groups {
			s.Groups[i].ingest(rec, ev)
		}
		return
	}
	for i := range s.Groups {
		if s.Groups[i].ingest(rec, ev) {
			dirty[i>>6] |= 1 << uint(i&63)
		}
	}
}

// MaterializeAll publishes every group's visible aggregates.
func (s *Schema) MaterializeAll(rec Record) {
	for i := range s.Groups {
		s.Groups[i].materialize(rec)
	}
}

// MaterializeDirty materializes every group whose dirty bit is set —
// restricted to sel when sel is non-nil — and clears the bits it consumed.
// Bits outside sel stay set, so a later call (typically with sel == nil,
// before the record is stored) finishes the job.
func (s *Schema) MaterializeDirty(rec Record, dirty []uint64, sel *GroupSet) {
	for wi := range dirty {
		w := dirty[wi]
		if sel != nil {
			w &= sel.bits[wi]
		}
		if w == 0 {
			continue
		}
		dirty[wi] &^= w
		base := wi * 64
		for w != 0 {
			b := mathbits.TrailingZeros64(w)
			s.Groups[base+b].materialize(rec)
			w &= w - 1
		}
	}
}

// GroupMaskWords returns the number of 64-bit words a dirty-group bitmask
// for this schema needs.
func (s *Schema) GroupMaskWords() int { return (len(s.Groups) + 63) / 64 }

// GroupSet is a bitset over a schema's attribute groups, used to scope lazy
// materialization to the groups a reader (e.g. the Business Rule set)
// actually consumes.
type GroupSet struct {
	bits []uint64
}

// GroupSetForAttrs returns the set of groups owning the given visible
// attribute slots. Builtin and static attributes (which no group
// materializes) are ignored; out-of-range slots are ignored too, since rule
// validation already rejects them.
func (s *Schema) GroupSetForAttrs(attrs []int) *GroupSet {
	gs := &GroupSet{bits: make([]uint64, s.GroupMaskWords())}
	for _, a := range attrs {
		if a < 0 || a >= len(s.Attrs) {
			continue
		}
		if gi := s.Attrs[a].Group; gi >= 0 {
			gs.bits[gi>>6] |= 1 << uint(gi&63)
		}
	}
	return gs
}

// Len reports the number of groups in the set.
func (gs *GroupSet) Len() int {
	n := 0
	for _, w := range gs.bits {
		n += mathbits.OnesCount64(w)
	}
	return n
}
