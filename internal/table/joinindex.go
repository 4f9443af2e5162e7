package table

import (
	"math"
	"math/bits"
	"sync"
)

// JoinKey is a fixed-size equi-join / grouping key mirroring Value.Key's
// equivalence classes without materializing strings: ints and integral floats
// share TagNum, non-integral floats use canonicalized bits (every NaN payload
// maps to one key, like FormatFloat), strings use dictionary codes, bools two
// values. NULLs never produce a join key (rows are skipped, as in the row
// path).
type JoinKey struct {
	Tag  uint8
	Bits uint64
}

const (
	TagNum  uint8 = iota // int, or float with an exact int64 value
	TagFrac              // non-integral float (canonical NaN bits)
	TagStr               // dictionary code (build-side space for joins)
	TagBool
	TagNull // NULL (grouping keys only; join keyers skip NULL rows)
	TagMiss // probe-side string absent from the build dictionary: matches nothing
	TagHash // hash of a multi-column key (NewJoinIndex callers verify the columns)
)

// FloatJoinKey keys a float with the same integral test as Value.Key, so
// int/float key unification matches the row engine.
func FloatJoinKey(f float64) JoinKey {
	if f == float64(int64(f)) {
		return JoinKey{TagNum, uint64(int64(f))}
	}
	if f != f {
		return JoinKey{TagFrac, math.Float64bits(math.NaN())}
	}
	return JoinKey{TagFrac, math.Float64bits(f)}
}

// JoinKeyer builds a per-row key extractor over the column. ok=false means
// NULL (the row does not participate). xlat, for string columns on the probe
// side, translates one of c's dictionary codes into the build-side dictionary
// space (-1 = absent, which yields TagMiss and can match nothing).
func (c *ColumnData) JoinKeyer(xlat func(code int32) int32) func(int32) (JoinKey, bool) {
	nulls := c.Nulls
	switch c.Kind {
	case KindInt:
		vals := c.Ints
		return func(i int32) (JoinKey, bool) {
			if nulls != nil && nulls.Get(int(i)) {
				return JoinKey{}, false
			}
			return JoinKey{TagNum, uint64(vals[i])}, true
		}
	case KindFloat:
		vals := c.Floats
		return func(i int32) (JoinKey, bool) {
			if nulls != nil && nulls.Get(int(i)) {
				return JoinKey{}, false
			}
			return FloatJoinKey(vals[i]), true
		}
	case KindString:
		codes := c.Codes
		return func(i int32) (JoinKey, bool) {
			code := codes[i]
			if code < 0 {
				return JoinKey{}, false
			}
			if xlat != nil {
				if code = xlat(code); code < 0 {
					return JoinKey{Tag: TagMiss}, true
				}
			}
			return JoinKey{TagStr, uint64(code)}, true
		}
	default: // KindBool
		vals := c.Bools
		return func(i int32) (JoinKey, bool) {
			if nulls != nil && nulls.Get(int(i)) {
				return JoinKey{}, false
			}
			var b uint64
			if vals[i] {
				b = 1
			}
			return JoinKey{TagBool, b}, true
		}
	}
}

// JoinIndex is an immutable equi-join index in CSR layout: every non-NULL row
// id, grouped by JoinKey, ascending within a key's run — the order a hash join
// built over the rows in table order would emit them. Two layouts, chosen from
// the data when the index is built, either at most ~20 bytes per row:
//
//   - dense: keys of one tag whose Bits span a compact range (dictionary
//     codes, bools, int columns DenseSpread admits) address offs directly;
//   - hash: everything else (floats, sparse ints) goes through an
//     open-addressed table of group numbers. Slots store no key: a hit is
//     verified against the key of the run's first row.
type JoinIndex struct {
	rows     []int32 // row ids grouped by key
	offs     []int32 // group g is rows[offs[g]:offs[g+1]]
	distinct int     // non-empty groups

	// dense layout (slots == nil): group = key.Bits - base for keys of tag.
	tag  uint8
	base uint64

	// hash layout: slots hold group+1 (0 = empty), linear probing.
	slots []int32
	shift uint
	key   func(int32) (JoinKey, bool)
	// A cached hash index is over an int or a float column: Runs reads a run's
	// first key from the vector, not through key.
	ints   []int64
	floats []float64
}

// DenseSpread reports whether the index of an int column of rows rows whose
// non-NULL values lie in [lo, hi] takes the dense layout: the value range is
// under four slots per row (16 B/row of offsets at worst, still cheaper to
// probe than hashing). A caller can ask it of the zone maps' bounds before
// anything is built.
func DenseSpread(lo, hi int64, rows int) bool {
	return uint64(hi)-uint64(lo) < 4*uint64(rows)
}

// Layout names the layout the build chose: "dense" or "hash".
func (ix *JoinIndex) Layout() string {
	if ix.slots == nil {
		return "dense"
	}
	return "hash"
}

// Distinct returns the number of distinct keys indexed.
func (ix *JoinIndex) Distinct() int { return ix.distinct }

// Unique reports whether no two indexed rows share a key, as in a primary key's
// index: every run is one row long.
func (ix *JoinIndex) Unique() bool { return ix.distinct == len(ix.rows) }

// Rows returns every indexed row id, grouped by key; Runs' bounds delimit it.
// The slice is the index's own and must not be modified.
func (ix *JoinIndex) Rows() []int32 { return ix.rows }

// IntRange returns the row ids whose cell lies in [lo, hi], grouped by key
// (ascending within a key's run, so ascending outright when the range holds
// one key), and ok = true — for the dense layout over an int column only:
// there the rows of a range are one contiguous slice, counted in O(1). The
// bounds are clamped to the indexed keys, so any int64 bounds are safe; lo >
// hi is the empty range. The slice aliases the index and must not be
// modified.
func (ix *JoinIndex) IntRange(lo, hi int64) (rows []int32, ok bool) {
	if ix.slots != nil || ix.ints == nil {
		return nil, false
	}
	first := int64(ix.base)
	last := first + int64(len(ix.offs)-2)
	lo, hi = max(lo, first), min(hi, last)
	if lo > hi {
		return ix.rows[:0], true
	}
	return ix.rows[ix.offs[lo-first]:ix.offs[hi-first+1]], true
}

// Runs is Lookup for a chunk of keys at once, one loop per layout with the
// lookup inline: key i is (tags[i], bits[i]) and its run Rows()[lo[i]:hi[i]],
// with lo[i] == hi[i] == 0 when no row holds it (so Rows()[lo[i]] can be read
// before the run's length is, whenever the index holds a row at all). A
// TagNull or TagMiss key is in no index.
func (ix *JoinIndex) Runs(tags []uint8, bits []uint64, lo, hi []int32) {
	offs := ix.offs
	bits, lo, hi = bits[:len(tags)], lo[:len(tags)], hi[:len(tags)]
	if ix.slots == nil {
		tag, base, groups := ix.tag, ix.base, uint64(len(offs)-1)
		for i, t := range tags {
			g := bits[i] - base
			if t != tag || g >= groups {
				lo[i], hi[i] = 0, 0
				continue
			}
			l, h := offs[g], offs[g+1]
			if l == h { // in range, and no row has it: offs[g] may be len(rows)
				l, h = 0, 0
			}
			lo[i], hi[i] = l, h
		}
		return
	}
	mask := uint64(len(ix.slots) - 1)
	for i, t := range tags {
		lo[i], hi[i] = 0, 0
		if t == TagNull || t == TagMiss {
			continue
		}
		k := JoinKey{t, bits[i]}
		for h := hashJoinKey(k) >> ix.shift; ; h = (h + 1) & mask {
			s := ix.slots[h]
			if s == 0 {
				break
			}
			var fk JoinKey
			switch first := ix.rows[offs[s-1]]; {
			case ix.ints != nil:
				fk = JoinKey{TagNum, uint64(ix.ints[first])}
			case ix.floats != nil:
				fk = FloatJoinKey(ix.floats[first])
			default:
				fk, _ = ix.key(first)
			}
			if fk == k {
				lo[i], hi[i] = offs[s-1], offs[s]
				break
			}
		}
	}
}

// Lookup returns the ascending row ids whose cell equals k (nil when none).
// The slice aliases the index and must not be modified.
func (ix *JoinIndex) Lookup(k JoinKey) []int32 {
	if ix.slots != nil {
		return ix.lookupHash(k)
	}
	g := k.Bits - ix.base
	if k.Tag != ix.tag || g >= uint64(len(ix.offs)-1) {
		return nil
	}
	return ix.rows[ix.offs[g]:ix.offs[g+1]]
}

func (ix *JoinIndex) lookupHash(k JoinKey) []int32 {
	mask := uint64(len(ix.slots) - 1)
	for h := hashJoinKey(k) >> ix.shift; ; h = (h + 1) & mask {
		s := ix.slots[h]
		if s == 0 {
			return nil
		}
		run := ix.rows[ix.offs[s-1]:ix.offs[s]]
		if rk, _ := ix.key(run[0]); rk == k {
			return run
		}
	}
}

func hashJoinKey(k JoinKey) uint64 {
	return (k.Bits ^ uint64(k.Tag)<<57) * 0x9E3779B97F4A7C15
}

// buildJoinIndex indexes a column over all rows, the layout chosen
// from the data.
func buildJoinIndex(c *ColumnData, all []int32) *JoinIndex {
	ix := &JoinIndex{key: c.JoinKeyer(nil)}
	groups := -1 // dense group count; -1 selects the hash layout
	switch c.Kind {
	case KindString:
		ix.tag, groups = TagStr, c.Dict.Len()
	case KindBool:
		ix.tag, groups = TagBool, 2
	case KindFloat:
		ix.floats = c.Floats
	case KindInt:
		ix.ints = c.Ints
		lo, hi, any := int64(0), int64(0), false
		for i, v := range c.Ints {
			if c.IsNull(i) {
				continue
			}
			if !any || v < lo {
				lo = v
			}
			if !any || v > hi {
				hi = v
			}
			any = true
		}
		if any && DenseSpread(lo, hi, len(all)) {
			ix.tag, ix.base, groups = TagNum, uint64(lo), int(uint64(hi)-uint64(lo))+1
		}
	}
	return ix.fill(all, groups)
}

// NewJoinIndex builds an uncached hash-layout index of key over the given rows
// (ascending), for a query the cached per-column index does not fit: a small
// filtered subset, or several key columns hashed into one TagHash key.
func NewJoinIndex(key func(int32) (JoinKey, bool), rows []int32) *JoinIndex {
	return (&JoinIndex{key: key}).fill(rows, -1)
}

// fill groups rows by ix.key with two counting-sort passes, so runs come out
// in ascending row order. groups is the dense group count, or -1 for hash.
func (ix *JoinIndex) fill(rows []int32, groups int) *JoinIndex {
	n := len(rows)
	var counts []int32 // per group; grows with the groups the hash layout finds
	if groups >= 0 {
		counts = make([]int32, groups)
	} else {
		size := 1 << bits.Len(uint(n+n/3)) // load factor <= 3/4, never full
		ix.slots = make([]int32, size)
		ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}

	group := make([]int32, n) // position in rows -> group, -1 for NULL
	var first []int32         // hash layout: group -> its first row, for key checks
	mask := uint64(len(ix.slots) - 1)
	for i, r := range rows {
		k, ok := ix.key(r)
		if !ok {
			group[i] = -1
			continue
		}
		g := int32(k.Bits - ix.base)
		if ix.slots != nil {
			h := hashJoinKey(k) >> ix.shift
			for ; ix.slots[h] != 0; h = (h + 1) & mask {
				if fk, _ := ix.key(first[ix.slots[h]-1]); fk == k {
					break
				}
			}
			if ix.slots[h] == 0 {
				first = append(first, r)
				counts = append(counts, 0)
				ix.slots[h] = int32(len(first))
			}
			g = ix.slots[h] - 1
		}
		group[i] = g
		if counts[g]++; counts[g] == 1 {
			ix.distinct++
		}
	}

	ix.offs = make([]int32, len(counts)+1)
	for g, cnt := range counts {
		ix.offs[g+1] = ix.offs[g] + cnt
		counts[g] = ix.offs[g] // reused as the group's write cursor
	}
	ix.rows = make([]int32, ix.offs[len(counts)])
	for i, g := range group {
		if g >= 0 {
			ix.rows[counts[g]] = rows[i]
			counts[g]++
		}
	}
	return ix
}

// derived is what a ColumnSet builds from its vectors on first use: a
// build-once join index per column and the identity selection vector, which
// every index build reads — so ident is non-nil once there is anything here for
// AppendRow to drop.
type derived struct {
	joinIdx   []joinIndexSlot // one per column
	identOnce sync.Once
	ident     []int32
}

func newDerived(cols int) *derived { return &derived{joinIdx: make([]joinIndexSlot, cols)} }

// joinIndexSlot is a build-once cell for one column's index.
type joinIndexSlot struct {
	once sync.Once
	ix   *JoinIndex
}

// JoinIndex returns the join index of column col, building it on first use; built reports whether this call did the build.
// Concurrent first users of one column block on one build and share it. The
// index is immutable, and right for the rows the table holds now: an AppendRow
// drops it.
func (cs *ColumnSet) JoinIndex(col int) (ix *JoinIndex, built bool) {
	e := &cs.derived.joinIdx[col]
	e.once.Do(func() {
		e.ix, built = buildJoinIndex(&cs.Cols[col], cs.Identity()), true
	})
	return e.ix, built
}

// Identity returns the selection vector [0, NumRows): every row of the table.
// It is built once and shared, so callers must treat it as read-only.
func (cs *ColumnSet) Identity() []int32 {
	d := cs.derived
	d.identOnce.Do(func() {
		d.ident = make([]int32, cs.NumRows)
		for i := range d.ident {
			d.ident[i] = int32(i)
		}
	})
	return d.ident
}
