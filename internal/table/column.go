package table

import (
	"math"
	"math/bits"
	"strings"
)

// This file is a relation's storage: typed column vectors (int64/float64/bool),
// dictionary-encoded strings, validity bitmaps and per-chunk zone maps, each
// grown one cell at a time by the typed appenders. There is no other copy of a
// table: lineage (RowID) is an index into these vectors, snapshots and WriteCSV
// read them through Value, and the engine's operators consume them directly. A
// column holds NULLs and values of its declared kind and nothing else;
// AppendRow checks that with a panic, ReadCSV with an error.

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

// add returns s's code, adding s when it is new.
func (d *Dict) add(s string) int32 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	return d.insert(s)
}

// addBytes is add for a string held as bytes: the lookup copies nothing, and
// b is copied only when it is new.
func (d *Dict) addBytes(b []byte) int32 {
	if c, ok := d.codes[string(b)]; ok {
		return c
	}
	return d.insert(string(b))
}

// insert gives s, which the dictionary does not hold, the next code.
func (d *Dict) insert(s string) int32 {
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

// ColumnData is one column of a table. Exactly one of the typed vectors is
// populated, chosen by the declared schema Kind.
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

// Value boxes cell i.
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

// Gather boxes cells into column j of dst: dst[k][j] becomes cell sel[lo+k] of
// the column (cell lo+k when sel is nil). Each dst[k][j] must be the zero
// Value, which is what a NULL cell leaves there.
func (c *ColumnData) Gather(dst []Row, j int, sel []int32, lo int) {
	for k, r := range dst {
		i := lo + k
		if sel != nil {
			i = int(sel[i])
		}
		if c.Nulls != nil && c.Nulls.Get(i) {
			continue
		}
		v := &r[j]
		v.Kind = c.Kind
		switch c.Kind {
		case KindInt:
			v.Int = c.Ints[i]
		case KindFloat:
			v.Float = c.Floats[i]
		case KindString:
			v.Str = c.Dict.Strs[c.Codes[i]]
		case KindBool:
			v.Bool = c.Bools[i]
		}
	}
}

// append adds cell i, the column's next, through the typed appender of v's
// kind. AppendRow has checked that v is NULL or of the column's kind.
func (c *ColumnData) append(i int, v Value) {
	switch v.Kind {
	case KindNull:
		c.appendNull(i)
	case KindInt:
		c.appendInt(i, v.Int)
	case KindFloat:
		c.appendFloat(i, v.Float)
	case KindString:
		c.appendString(i, c.Dict.add(v.Str))
	case KindBool:
		c.appendBool(i, v.Bool)
	}
}

// The typed appenders add cell i, the column's next, to a column of their kind
// (appendNull to any): the value or the kind's zero, the null bit, the chunk's
// zone, the string's dictionary code (Dict.add, Dict.addBytes). Nothing else
// grows a column. zone opens a chunk (and a null-bitmap word) where i starts one.
func (c *ColumnData) zone(i int) *Zone {
	if i%ZoneChunkRows == 0 {
		c.Zones = append(c.Zones, Zone{})
	}
	if c.Nulls != nil && i>>6 == len(c.Nulls) {
		c.Nulls = append(c.Nulls, 0)
	}
	return &c.Zones[len(c.Zones)-1]
}

func (c *ColumnData) appendNull(i int) {
	c.zone(i).HasNull = true
	if c.Nulls == nil {
		c.Nulls = NewBitmap(i + 1)
	}
	c.Nulls.Set(i)
	switch c.Kind {
	case KindInt:
		c.Ints = append(c.Ints, 0)
	case KindFloat:
		c.Floats = append(c.Floats, 0)
	case KindBool:
		c.Bools = append(c.Bools, false)
	case KindString:
		c.Codes = append(c.Codes, -1)
	}
}

func (c *ColumnData) appendInt(i int, v int64) {
	updateZone(c.zone(i), float64(v))
	c.Ints = append(c.Ints, v)
}

func (c *ColumnData) appendFloat(i int, v float64) {
	updateZone(c.zone(i), v)
	c.Floats = append(c.Floats, v)
}

func (c *ColumnData) appendBool(i int, v bool) {
	c.zone(i).HasValue = true
	c.Bools = append(c.Bools, v)
}

func (c *ColumnData) appendString(i int, code int32) {
	c.zone(i).HasValue = true
	c.Codes = append(c.Codes, code)
}

// ColumnSet is a table's columns. The typed vectors are the storage; the
// per-column join indexes and the identity selection vector (joinindex.go) are
// derived from them on first use and dropped by the next AppendRow.
type ColumnSet struct {
	NumRows int
	Cols    []ColumnData

	derived *derived
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
