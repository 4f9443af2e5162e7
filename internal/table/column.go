package table

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the columnar view of a Table: typed column vectors
// (int64/float64/bool), dictionary-encoded strings, validity bitmaps, and
// per-chunk zone maps. The row-major Rows slice remains the source of truth —
// CSV load, lineage (RowID) and snapshot persistence are untouched — and the
// columnar form is derived lazily and cached, invalidated on AppendRow.
//
// The engine's vectorized operators consume this view; everything else keeps
// reading Rows. A relation's column holds NULLs and values of its declared
// kind and nothing else: buildColumn panics on any other cell (a programming
// error, as a wrong arity is to AppendRow; ReadCSV parses every field by its
// column's kind and refuses a null-kind column), so no operator has to
// reproduce cross-kind coercion semantics cell by cell.

// ZoneChunkRows is the number of rows summarized by one zone-map entry. It is
// deliberately equal to the engine's morsel size so a zone prunes exactly one
// morsel.
const ZoneChunkRows = 1024

// Bitmap is a dense bitset over row indices.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n bits, all zero.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Bit is bit i as 0 or 1, for loops that add it instead of branching on it.
func (b Bitmap) Bit(i int) int { return int(b[i>>6] >> (uint(i) & 63) & 1) }

// AppendRows appends the indices of the set bits to dst, ascending.
func (b Bitmap) AppendRows(dst []int32) []int32 {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// Dict is a first-appearance string dictionary: code i maps to the i-th
// distinct string encountered in row order, so dictionary contents are
// deterministic for a given table.
type Dict struct {
	Strs  []string
	codes map[string]int32
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return len(d.Strs) }

// Code returns the code for s, if present.
func (d *Dict) Code(s string) (int32, bool) {
	c, ok := d.codes[s]
	return c, ok
}

func (d *Dict) add(s string) int32 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	if d.codes == nil {
		d.codes = make(map[string]int32)
	}
	c := int32(len(d.Strs))
	d.Strs = append(d.Strs, s)
	d.codes[s] = c
	return c
}

// Zone summarizes one ZoneChunkRows-sized chunk of a column: min/max over
// non-null cells (numeric columns only) plus null/value presence flags. The
// engine consults zones to skip whole morsels that cannot satisfy a filter.
type Zone struct {
	// Min and Max bound the non-null values of the chunk as float64 (the
	// engine compares numerics through float64, matching Value.Compare).
	// They are meaningful only when HasValue is true and the column kind is
	// numeric.
	Min, Max float64
	// HasValue reports whether the chunk holds at least one non-null cell.
	HasValue bool
	// HasNull reports whether the chunk holds at least one NULL cell.
	HasNull bool
}

// ColumnData is the columnar form of a single column. Exactly one of the
// typed vectors is populated, chosen by the declared schema Kind.
type ColumnData struct {
	Kind Kind
	// Nulls is non-nil iff the column has at least one NULL cell.
	Nulls Bitmap
	// Ints holds KindInt cells (0 at NULL positions).
	Ints []int64
	// Floats holds KindFloat cells (0 at NULL positions).
	Floats []float64
	// Bools holds KindBool cells (false at NULL positions).
	Bools []bool
	// Codes holds dictionary codes for KindString cells (-1 at NULL
	// positions); Dict resolves codes back to strings.
	Codes []int32
	Dict  *Dict
	// Zones has one entry per ZoneChunkRows rows (last chunk may be short).
	Zones []Zone
}

// IsNull reports whether cell i is NULL.
func (c *ColumnData) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// HasNulls reports whether any cell is NULL.
func (c *ColumnData) HasNulls() bool { return c.Nulls != nil }

// Value reconstructs cell i as a Value.
func (c *ColumnData) Value(i int) Value {
	if c.IsNull(i) {
		return Null
	}
	switch c.Kind {
	case KindInt:
		return NewInt(c.Ints[i])
	case KindFloat:
		return NewFloat(c.Floats[i])
	case KindString:
		return NewString(c.Dict.Strs[c.Codes[i]])
	case KindBool:
		return NewBool(c.Bools[i])
	default:
		return Null
	}
}

// ColumnSet is the cached columnar view of a whole table. The typed vectors
// are built eagerly; the per-column join indexes and the identity selection
// vector (joinindex.go) are derived from them on first use.
type ColumnSet struct {
	NumRows int
	Cols    []ColumnData

	joinIdx   []joinIndexSlot // one per column
	identOnce sync.Once
	ident     []int32
}

// Columns returns the columnar view of the table, building and caching it on
// first use: concurrent first callers block on one build and share its
// complete, immutable ColumnSet. The cache is invalidated by AppendRow. It
// panics if a cell is neither NULL nor of its column's declared kind.
func (t *Table) Columns() *ColumnSet {
	if cs := t.cols.Load(); cs != nil {
		return cs
	}
	t.colsMu.Lock()
	defer t.colsMu.Unlock()
	if cs := t.cols.Load(); cs != nil {
		return cs
	}
	cs := buildColumnSet(t)
	t.cols.Store(cs)
	return cs
}

func buildColumnSet(t *Table) *ColumnSet {
	cs := &ColumnSet{
		NumRows: len(t.Rows),
		Cols:    make([]ColumnData, len(t.Schema)),
		joinIdx: make([]joinIndexSlot, len(t.Schema)),
	}
	for ci := range t.Schema {
		buildColumn(t, ci, &cs.Cols[ci])
	}
	return cs
}

func buildColumn(t *Table, ci int, out *ColumnData) {
	n := len(t.Rows)
	kind := t.Schema[ci].Kind
	out.Kind = kind
	switch kind {
	case KindInt:
		out.Ints = make([]int64, n)
	case KindFloat:
		out.Floats = make([]float64, n)
	case KindString:
		out.Codes = make([]int32, n)
		out.Dict = &Dict{}
	case KindBool:
		out.Bools = make([]bool, n)
	default:
		panic(fmt.Sprintf("table %s: column %s is declared %s, which no cell can hold", t.Name, t.Schema[ci].Name, kind))
	}
	nChunks := (n + ZoneChunkRows - 1) / ZoneChunkRows
	zones := make([]Zone, nChunks)
	for i, r := range t.Rows {
		v := r[ci]
		z := &zones[i/ZoneChunkRows]
		if v.Kind == KindNull {
			if out.Nulls == nil {
				out.Nulls = NewBitmap(n)
			}
			out.Nulls.Set(i)
			if out.Codes != nil {
				out.Codes[i] = -1
			}
			z.HasNull = true
			continue
		}
		if v.Kind != kind {
			panic(fmt.Sprintf("table %s: column %s row %d holds a %s, declared %s", t.Name, t.Schema[ci].Name, i, v.Kind, kind))
		}
		switch kind {
		case KindInt:
			out.Ints[i] = v.Int
			updateZone(z, float64(v.Int))
		case KindFloat:
			out.Floats[i] = v.Float
			updateZone(z, v.Float)
		case KindString:
			out.Codes[i] = out.Dict.add(v.Str)
			z.HasValue = true
		case KindBool:
			out.Bools[i] = v.Bool
			z.HasValue = true
		}
	}
	out.Zones = zones
}

func updateZone(z *Zone, v float64) {
	if v != v {
		// NaN compares as equal-to-everything under Value.Compare, so a chunk
		// containing NaN can satisfy any ordered predicate: poison the zone to
		// an infinite range so no prune rule ever fires on it.
		z.Min, z.Max = math.Inf(-1), math.Inf(1)
		z.HasValue = true
		return
	}
	if !z.HasValue {
		z.Min, z.Max = v, v
		z.HasValue = true
		return
	}
	if v < z.Min {
		z.Min = v
	}
	if v > z.Max {
		z.Max = v
	}
}

// cache holds the lazily-derived per-table indexes: the columnar view and the
// case-folded column-name index. It lives in its own struct so Table's hot
// fields stay simple and the zero Table remains usable.
type cache struct {
	cols    atomic.Pointer[ColumnSet]
	colsMu  sync.Mutex
	nameIdx atomic.Pointer[nameIndexData]
}

// invalidate drops the columnar view (called on row mutation). The name index
// survives: the schema is fixed at New time.
func (c *cache) invalidate() {
	if c.cols.Load() != nil {
		c.cols.Store(nil)
	}
}

// nameIndexData is the memoized case-folded column-name index. ascii reports
// whether every schema name is plain ASCII; when it is, a map miss on an
// ASCII lookup is a definitive miss (ASCII ToLower and EqualFold agree).
type nameIndexData struct {
	m     map[string]int
	ascii bool
}

// nameIndex returns the memoized case-folded name→index map for the schema,
// building it on first use. Duplicate folded names keep the first index,
// matching the linear scan's first-match behavior.
func (t *Table) nameIndex() *nameIndexData {
	if ni := t.nameIdx.Load(); ni != nil {
		return ni
	}
	ni := &nameIndexData{m: make(map[string]int, len(t.Schema)), ascii: true}
	for i, c := range t.Schema {
		if !asciiOnly(c.Name) {
			ni.ascii = false
		}
		key := strings.ToLower(c.Name)
		if _, ok := ni.m[key]; !ok {
			ni.m[key] = i
		}
	}
	t.nameIdx.Store(ni)
	return ni
}

func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// lookupFolded probes the name index without allocating for ASCII names of
// reasonable length (the overwhelmingly common case for SQL identifiers).
func lookupFolded(ni *nameIndexData, name string) (int, bool) {
	needsFold := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 || (c >= 'A' && c <= 'Z') {
			needsFold = true
			break
		}
	}
	if !needsFold {
		i, ok := ni.m[name]
		return i, ok
	}
	if len(name) <= 64 && asciiOnly(name) {
		var buf [64]byte
		for i := 0; i < len(name); i++ {
			c := name[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf[i] = c
		}
		i, ok := ni.m[string(buf[:len(name)])]
		return i, ok
	}
	i, ok := ni.m[strings.ToLower(name)]
	return i, ok
}
