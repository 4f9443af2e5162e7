package table

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Column describes one column of a table schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// ColumnIndex returns the index of the named column, or -1. The scan is
// linear: a relation's binder goes through Table.ColumnIndex instead.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as "name:kind, name:kind, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return strings.Join(parts, ", ")
}

// Row is one tuple: a slice of values aligned with a Schema.
type Row []Value

// Key returns a string that uniquely identifies the row's contents.
func (r Row) Key() string { return string(r.AppendKey(nil)) }

// AppendKey appends the row's key bytes (see Key) to dst and returns the
// extended slice. Callers on hot paths reuse dst across rows to avoid the
// per-row allocation of Key.
func (r Row) AppendKey(dst []byte) []byte {
	for _, v := range r {
		dst = v.AppendKey(dst)
		dst = append(dst, 0x1f)
	}
	return dst
}

// Table is a named relation, stored as its columns and nothing else: one typed
// vector per schema column (column.go). Build one with New and AppendRow; once
// it is shared — added to a database that serves queries — it is not appended
// to again, and Select is how a copy is made. Row and Cell box cells on demand
// for display, the test oracle and cold per-row code; operators read Columns.
type Table struct {
	Name   string
	Schema Schema

	cols    ColumnSet
	nameIdx atomic.Pointer[nameIndexData]
}

// New creates an empty table with the given name and schema.
func New(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema.Clone()}
	t.cols.Cols = make([]ColumnData, len(schema))
	for ci, c := range schema {
		t.cols.Cols[ci].Kind = c.Kind
		if c.Kind == KindString {
			t.cols.Cols[ci].Dict = &Dict{}
		}
	}
	t.cols.derived = newDerived(len(schema))
	return t
}

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int { return t.cols.NumRows }

// Columns returns the table's storage. It is read-only to callers.
func (t *Table) Columns() *ColumnSet { return &t.cols }

// AppendRow adds a tuple: each cell goes onto its column's vector, r itself is
// not kept. It panics, leaving the table as it was, if the arity does not match
// the schema, if a cell is neither NULL nor of its column's declared kind, or
// if a column is declared null (a kind no cell can hold): each is always a
// programming error in this codebase, and ReadCSV refuses all three as errors.
func (t *Table) AppendRow(r Row) {
	if len(r) != len(t.Schema) {
		panic(fmt.Sprintf("table %s: row arity %d != schema arity %d", t.Name, len(r), len(t.Schema)))
	}
	cs := &t.cols
	for ci, v := range r {
		switch kind := cs.Cols[ci].Kind; {
		case kind < KindInt || kind > KindBool:
			panic(fmt.Sprintf("table %s: column %s is declared %s, which no cell can hold", t.Name, t.Schema[ci].Name, kind))
		case v.Kind != KindNull && v.Kind != kind:
			panic(fmt.Sprintf("table %s: column %s row %d holds a %s, declared %s", t.Name, t.Schema[ci].Name, cs.NumRows, v.Kind, kind))
		}
	}
	for ci, v := range r {
		cs.Cols[ci].append(cs.NumRows, v)
	}
	cs.NumRows++
	if cs.derived.ident != nil {
		cs.derived = newDerived(len(cs.Cols))
	}
}

// Row boxes tuple i.
func (t *Table) Row(i int) Row {
	r := make(Row, len(t.cols.Cols))
	for c := range r {
		r[c] = t.cols.Cols[c].Value(i)
	}
	return r
}

// Cell boxes the cell of tuple i in column c.
func (t *Table) Cell(i, c int) Value { return t.cols.Cols[c].Value(i) }

// ColumnIndex returns the index of the named column, or -1. Unlike
// Schema.ColumnIndex it answers from a memoized case-folded map, so repeated
// lookups (binder resolution, projection) are O(1).
func (t *Table) ColumnIndex(name string) int {
	ni := t.nameIndex()
	if i, ok := lookupFolded(ni, name); ok {
		return i
	}
	if !ni.ascii || !asciiOnly(name) {
		// Exotic Unicode identifiers: defer to the reference EqualFold scan,
		// whose simple-fold semantics differ from ToLower in rare cases.
		return t.Schema.ColumnIndex(name)
	}
	return -1
}

// Select returns a new table containing the rows at the given indices (in the
// given order). Indices out of range are skipped. Each column is gathered
// through the same append AppendRow uses, so the copy is what appending the
// selected rows to an empty table builds: its own zones, and its own
// dictionaries in first-appearance order over the selected rows.
func (t *Table) Select(indices []int) *Table {
	out := New(t.Name, t.Schema)
	keep := make([]int, 0, len(indices))
	for _, i := range indices {
		if i >= 0 && i < t.cols.NumRows {
			keep = append(keep, i)
		}
	}
	out.cols.NumRows = len(keep)
	for ci := range out.cols.Cols {
		for at, i := range keep {
			out.cols.Cols[ci].append(at, t.cols.Cols[ci].Value(i))
		}
	}
	return out
}

// RowSet is an answer: the rows a statement produced, under the schema the
// engine inferred for them. It is not a relation — a cell's kind is whatever
// the expression evaluated to (Schema is the engine's best guess), nothing is
// columnar and nothing joins against it.
type RowSet struct {
	Schema Schema
	Rows   []Row
}

// NumRows returns the number of rows in the answer.
func (s *RowSet) NumRows() int { return len(s.Rows) }

// ColumnIndex returns the index of the named output column, or -1.
func (s *RowSet) ColumnIndex(name string) int { return s.Schema.ColumnIndex(name) }

// GroupValues reads an aggregate's answer as group → value: a grouped one maps
// its first column's Value.String() to its second column (the first aggregate),
// an ungrouped one maps "" to its first. A nil answer has no groups.
func (s *RowSet) GroupValues(grouped bool) map[string]float64 {
	out := map[string]float64{}
	if s == nil {
		return out
	}
	for _, r := range s.Rows {
		if grouped && len(r) >= 2 {
			out[r[0].String()] = r[1].AsFloat()
		} else if !grouped && len(r) >= 1 {
			out[""] = r[0].AsFloat()
		}
	}
	return out
}

// RowID identifies a base tuple by table name and row index. It is the unit
// of membership in approximation sets.
type RowID struct {
	Table string
	Row   int
}

// String renders the RowID as "table:row".
func (id RowID) String() string { return fmt.Sprintf("%s:%d", id.Table, id.Row) }

// Database is a catalog of tables. Table order is preserved for deterministic
// iteration.
type Database struct {
	names  []string
	tables map[string]*Table
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Add inserts or replaces a table.
func (d *Database) Add(t *Table) {
	key := strings.ToLower(t.Name)
	if _, ok := d.tables[key]; !ok {
		d.names = append(d.names, key)
	}
	d.tables[key] = t
}

// Table returns the named table (case-insensitive), or nil.
func (d *Database) Table(name string) *Table {
	return d.tables[strings.ToLower(name)]
}

// TableNames returns table names in insertion order.
func (d *Database) TableNames() []string {
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// Tables returns all tables in insertion order.
func (d *Database) Tables() []*Table {
	out := make([]*Table, 0, len(d.names))
	for _, n := range d.names {
		out = append(out, d.tables[n])
	}
	return out
}

// TotalRows returns the total tuple count over all tables.
func (d *Database) TotalRows() int {
	total := 0
	for _, t := range d.Tables() {
		total += t.NumRows()
	}
	return total
}

// Subset is a selection of row indices per table, i.e. an approximation set
// 𝒮 = {S1..Sn} in the paper's notation. Indices refer to rows of the parent
// database's tables.
type Subset struct {
	rows map[string]map[int]bool
}

// NewSubset creates an empty subset.
func NewSubset() *Subset {
	return &Subset{rows: make(map[string]map[int]bool)}
}

// Add inserts a row reference. Duplicate additions are idempotent.
func (s *Subset) Add(id RowID) {
	key := strings.ToLower(id.Table)
	m := s.rows[key]
	if m == nil {
		m = make(map[int]bool)
		s.rows[key] = m
	}
	m[id.Row] = true
}

// AddAll inserts every row reference in ids.
func (s *Subset) AddAll(ids []RowID) {
	for _, id := range ids {
		s.Add(id)
	}
}

// Contains reports whether the subset holds the row.
func (s *Subset) Contains(id RowID) bool {
	return s.rows[strings.ToLower(id.Table)][id.Row]
}

// Size returns Σ|S_i|, the total number of tuples in the subset.
func (s *Subset) Size() int {
	total := 0
	for _, m := range s.rows {
		total += len(m)
	}
	return total
}

// TableRows returns the sorted row indices kept for the named table.
func (s *Subset) TableRows(name string) []int {
	m := s.rows[strings.ToLower(name)]
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// IDs returns every row reference in the subset, sorted by table then row.
func (s *Subset) IDs() []RowID {
	tables := make([]string, 0, len(s.rows))
	for t := range s.rows {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []RowID
	for _, t := range tables {
		for _, r := range s.TableRows(t) {
			out = append(out, RowID{Table: t, Row: r})
		}
	}
	return out
}

// Clone returns a deep copy of the subset.
func (s *Subset) Clone() *Subset {
	out := NewSubset()
	for t, m := range s.rows {
		nm := make(map[int]bool, len(m))
		for r := range m {
			nm[r] = true
		}
		out.rows[t] = nm
	}
	return out
}

// Materialize builds a Database holding only the subset's rows of db. Tables
// of db with no selected rows are materialized empty, so queries referencing
// them still execute (and return empty results).
func (s *Subset) Materialize(db *Database) *Database {
	out := NewDatabase()
	for _, t := range db.Tables() {
		out.Add(t.Select(s.TableRows(t.Name)))
	}
	return out
}
