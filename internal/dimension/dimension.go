// Package dimension implements the small, relatively static Dimension Tables
// of the AIM design (§3.4): lookup tables such as RegionInfo or
// SubscriptionType that RTA queries join against.
//
// Following the paper's placement decision, dimension tables are replicated
// at every storage node and their keys are inlined into Entity Records as
// static attributes, so joins reduce to local hash lookups during group-by.
// Tables are immutable after construction (Freeze), which makes replication
// a pointer copy and concurrent reads trivially safe.
package dimension

import (
	"fmt"
	"sort"
)

// Table is a single dimension table: rows keyed by a uint64 surrogate key,
// with named string columns.
type Table struct {
	name    string
	columns []string
	rows    map[uint64][]string
	frozen  bool
}

// NewTable creates an empty table with the given column names.
func NewTable(name string, columns ...string) *Table {
	return &Table{name: name, columns: columns, rows: make(map[uint64][]string)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Insert adds a row. It fails after Freeze, on duplicate keys, or on arity
// mismatch.
func (t *Table) Insert(key uint64, values ...string) error {
	if t.frozen {
		return fmt.Errorf("dimension: table %q is frozen", t.name)
	}
	if len(values) != len(t.columns) {
		return fmt.Errorf("dimension: table %q: %d values for %d columns", t.name, len(values), len(t.columns))
	}
	if _, dup := t.rows[key]; dup {
		return fmt.Errorf("dimension: table %q: duplicate key %d", t.name, key)
	}
	row := make([]string, len(values))
	copy(row, values)
	t.rows[key] = row
	return nil
}

// Freeze marks the table immutable; subsequent Inserts fail.
func (t *Table) Freeze() { t.frozen = true }

// Lookup returns the value of column col for the given key.
func (t *Table) Lookup(key uint64, col string) (string, bool) {
	row, ok := t.rows[key]
	if !ok {
		return "", false
	}
	for i, c := range t.columns {
		if c == col {
			return row[i], true
		}
	}
	return "", false
}

// Keys returns all row keys in ascending order.
func (t *Table) Keys() []uint64 {
	out := make([]uint64, 0, len(t.rows))
	for k := range t.rows {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KeysWhere returns the keys whose column col equals value, in ascending
// order. Query generators use this to translate name-valued parameters
// (e.g. a country name) into inlined-key filters.
func (t *Table) KeysWhere(col, value string) []uint64 {
	var out []uint64
	ci := -1
	for i, c := range t.columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil
	}
	for k, row := range t.rows {
		if row[ci] == value {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DistinctValues returns the distinct values of col in sorted order.
func (t *Table) DistinctValues(col string) []string {
	seen := map[string]bool{}
	ci := -1
	for i, c := range t.columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil
	}
	for _, row := range t.rows {
		seen[row[ci]] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Store is a named collection of dimension tables as replicated at each
// storage node.
type Store struct {
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: make(map[string]*Table)} }

// Add registers a table, freezing it.
func (s *Store) Add(t *Table) {
	t.Freeze()
	s.tables[t.Name()] = t
}

// Table returns the named table, or an error.
func (s *Store) Table(name string) (*Table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("dimension: unknown table %q", name)
	}
	return t, nil
}

// Names returns the registered table names in sorted order.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
