package engine

import (
	"math"
	"math/bits"
	"strings"
	"sync"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Vectorised grouped aggregation (DESIGN §13 "Aggregate phase"). The joined
// batch is read guardInterval rows at a time, and each chunk in three passes:
// every GROUP BY key folds a small integer code, read straight from its typed
// column, into one running code per row; the running codes become group ids,
// numbered as groups first appear; and every aggregate call runs one loop over
// its argument's typed vector into arrays indexed by group id. No cell is boxed
// into a Value, nothing is hashed unless a key's values are wide, and the work
// per chunk is a handful of calls, so the guard is ticked exactly as the
// row-at-a-time loop ticks it.

// keyEnc is how a GROUP BY column's cells become codes below groupKey.card.
// NULL is a group of its own under every encoding, as in Value.AppendKey.
type keyEnc uint8

const (
	encDict   keyEnc = iota // dictionary code + 1, NULL 0
	encBool                 // false 1, true 2, NULL 0
	encOffset               // int - column minimum + 1, NULL 0
	encHashed               // per-query number of the distinct value, NULL one of them
)

// hashedCard bounds an encHashed key's codes, and a flushed running code: both
// number distinct things found among fewer than 1<<31 batch rows.
const hashedCard = 1 << 31

// groupKey is one GROUP BY column of a typed aggregation.
type groupKey struct {
	col  *table.ColumnData
	bd   binding
	enc  keyEnc
	card uint64 // codes are below card
	base int64  // encOffset: the column's minimum

	// flush: the running code times card would overflow, so it is renumbered
	// densely (through renum) before this key folds in.
	flush bool
	renum *u64table

	rows   []int32   // the batch column of the key's relation
	vals   *u64table // encHashed: the numbers of the values seen
	nullID int32     // encHashed: NULL's number + 1, 0 before the first NULL
}

// String names the encoding for EXPLAIN.
func (k *groupKey) String() string {
	switch k.enc {
	case encDict:
		return "dictionary codes"
	case encBool:
		return "bools"
	case encOffset:
		return "int offsets"
	}
	if k.col.Kind == table.KindFloat {
		return "hashed floats"
	}
	return "hashed ints"
}

// intSpan is the range [lo, hi] of an int column's non-NULL cells, from its
// zone maps: ok only when the column holds a value and both ends are below
// 2^53 in magnitude, where the zones' float64 bounds are the cells' own values.
func intSpan(c *table.ColumnData) (lo, hi int64, ok bool) {
	mn, mx := math.Inf(1), math.Inf(-1) // no value: neither end is an exactInt
	for i := range c.Zones {
		if z := &c.Zones[i]; z.HasValue {
			mn, mx = min(mn, z.Min), max(mx, z.Max)
		}
	}
	lo, lok := exactInt(mn)
	hi, hok := exactInt(mx)
	return lo, hi, lok && hok
}

func newGroupKey(b *binder, bd binding) groupKey {
	k := groupKey{col: b.col(bd), bd: bd, enc: encHashed, card: hashedCard}
	switch k.col.Kind {
	case table.KindString:
		k.enc, k.card = encDict, uint64(k.col.Dict.Len())+1
	case table.KindBool:
		k.enc, k.card = encBool, 3
	case table.KindInt:
		// Offsets 1..hi-lo+1 and NULL's 0: hi-lo+2 codes, worth it below hashedCard.
		if lo, hi, ok := intSpan(k.col); ok && uint64(hi-lo)+2 < hashedCard {
			k.enc, k.base, k.card = encOffset, lo, uint64(hi-lo)+2
		}
	}
	return k
}

// floatKeyBits maps a float to one uint64 per Value.AppendKey class: -0 is 0
// and every NaN is one NaN; other floats are their own class.
func floatKeyBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// fold multiplies each row's running code by the key's cardinality and adds the
// key's code of batch rows [lo, lo+len(acc)): mixed radix, first key most
// significant.
func (k *groupKey) fold(lo int, acc []uint64) {
	if k.flush {
		for i, c := range acc {
			acc[i] = uint64(k.renum.id(c))
		}
	}
	rows, nulls, card := k.rows[lo:lo+len(acc)], k.col.Nulls, k.card
	switch k.enc {
	case encDict:
		codes := k.col.Codes
		for i, ri := range rows {
			acc[i] = acc[i]*card + uint64(codes[ri]+1)
		}
	case encBool:
		bools := k.col.Bools
		for i, ri := range rows {
			c := uint64(1)
			if bools[ri] {
				c = 2
			}
			if nulls != nil && nulls.Get(int(ri)) {
				c = 0
			}
			acc[i] = acc[i]*card + c
		}
	case encOffset:
		ints, base := k.col.Ints, k.base
		for i, ri := range rows {
			c := uint64(ints[ri]-base) + 1
			if nulls != nil && nulls.Get(int(ri)) {
				c = 0
			}
			acc[i] = acc[i]*card + c
		}
	case encHashed:
		ints, floats := k.col.Ints, k.col.Floats
		for i, ri := range rows {
			var id int32
			switch {
			case nulls != nil && nulls.Get(int(ri)):
				if k.nullID == 0 {
					k.nullID = k.vals.next() + 1
				}
				id = k.nullID - 1
			case ints != nil:
				id = k.vals.id(uint64(ints[ri]))
			default:
				id = k.vals.id(floatKeyBits(floats[ri]))
			}
			acc[i] = acc[i]*card + uint64(id)
		}
	}
}

// u64table numbers distinct uint64 keys densely, in first-appearance order:
// open addressing with linear probing, doubled when three quarters full.
type u64table struct {
	slots []u64slot
	shift uint
	n     int32 // numbers handed out
}

type u64slot struct {
	key uint64
	id  int32 // number + 1; 0 marks an empty slot
}

func newU64table() *u64table {
	t := &u64table{}
	t.resize(64)
	return t
}

func (t *u64table) resize(size int) {
	old := t.slots
	t.slots, t.shift = make([]u64slot, size), uint(64-bits.Len(uint(size-1)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.id != 0 {
			h := s.key * 0x9E3779B97F4A7C15 >> t.shift
			for t.slots[h].id != 0 {
				h = (h + 1) & mask
			}
			t.slots[h] = s
		}
	}
}

// next hands out a number to something that is not a key (a NULL).
func (t *u64table) next() int32 {
	t.n++
	return t.n - 1
}

// id returns k's number, handing out the next one when k is new.
func (t *u64table) id(k uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for h := k * 0x9E3779B97F4A7C15 >> t.shift; ; h = (h + 1) & mask {
		s := &t.slots[h]
		if s.id == 0 {
			if int(t.n)*4 >= len(t.slots)*3 {
				t.resize(2 * len(t.slots))
				return t.id(k)
			}
			t.n++
			s.key, s.id = k, t.n
			return t.n - 1
		}
		if s.key == k {
			return s.id - 1
		}
	}
}

// aggAcc accumulates one aggregate call over a typed column, per group id, in
// only the arrays the function reads: counts of non-NULL cells (COUNT, and SUM
// and AVG, NULL over none), float sums added in row order like the row
// engine's, and for MIN / MAX the table row of the extreme so far (-1: none),
// whose cell is the answer as stored.
type aggAcc struct {
	call *sqlparse.Call
	col  *table.ColumnData // nil for f(*)
	bd   binding
	rows []int32 // the batch column of the argument's relation

	counts []int64
	sums   []float64
	best   []int32
}

func (a *aggAcc) reads() (counts, sums, best bool) {
	switch a.call.Name {
	case "COUNT":
		return true, false, false
	case "SUM", "AVG":
		return true, true, false
	case "MIN", "MAX":
		return false, false, !a.call.Star
	}
	return false, false, false
}

// grow extends the arrays to n groups.
func (a *aggAcc) grow(n int) {
	counts, sums, best := a.reads()
	for counts && len(a.counts) < n {
		a.counts = append(a.counts, 0)
	}
	for sums && len(a.sums) < n {
		a.sums = append(a.sums, 0)
	}
	for best && len(a.best) < n {
		a.best = append(a.best, -1)
	}
}

// add accumulates batch rows [lo, lo+len(gids)), whose group ids are gids.
func (a *aggAcc) add(lo int, gids []int32) {
	if a.call.Star {
		if a.counts != nil {
			for _, g := range gids {
				a.counts[g]++
			}
		}
		return
	}
	rows, c := a.rows[lo:lo+len(gids)], a.col
	switch a.call.Name {
	case "COUNT":
		if c.Nulls == nil {
			for _, g := range gids {
				a.counts[g]++
			}
			return
		}
		for i, ri := range rows {
			if !c.Nulls.Get(int(ri)) {
				a.counts[gids[i]]++
			}
		}
	case "SUM", "AVG":
		// Value.AsFloat: a string adds 0 to a sum that started at 0.
		switch c.Kind {
		case table.KindInt:
			sumInto(c.Ints, rows, c.Nulls, gids, a.counts, a.sums)
		case table.KindFloat:
			sumInto(c.Floats, rows, c.Nulls, gids, a.counts, a.sums)
		default:
			for i, ri := range rows {
				if c.IsNull(int(ri)) {
					continue
				}
				a.counts[gids[i]]++
				if c.Kind == table.KindBool && c.Bools[ri] {
					a.sums[gids[i]]++
				}
			}
		}
	case "MIN", "MAX":
		max := a.call.Name == "MAX"
		switch c.Kind {
		case table.KindInt:
			extremeInto(c.Ints, rows, c.Nulls, gids, a.best, max)
		case table.KindFloat:
			extremeInto(c.Floats, rows, c.Nulls, gids, a.best, max)
		case table.KindString:
			codes, strs := c.Codes, c.Dict.Strs
			for i, ri := range rows {
				code := codes[ri]
				if code < 0 {
					continue
				}
				bp := &a.best[gids[i]]
				// Two codes are two strings: not less is greater.
				if *bp < 0 || code != codes[*bp] && (strs[code] < strs[codes[*bp]]) != max {
					*bp = ri
				}
			}
		case table.KindBool:
			bools := c.Bools
			for i, ri := range rows {
				if c.IsNull(int(ri)) {
					continue
				}
				bp := &a.best[gids[i]]
				if *bp < 0 || bools[ri] != bools[*bp] && bools[ri] == max {
					*bp = ri
				}
			}
		}
	}
}

func sumInto[T int64 | float64](vals []T, rows []int32, nulls table.Bitmap, gids []int32, counts []int64, sums []float64) {
	if nulls == nil {
		for i, ri := range rows {
			g := gids[i]
			counts[g]++
			sums[g] += float64(vals[ri])
		}
		return
	}
	for i, ri := range rows {
		if !nulls.Get(int(ri)) {
			g := gids[i]
			counts[g]++
			sums[g] += float64(vals[ri])
		}
	}
}

// extremeInto keeps per group the first row holding the least (greatest) value,
// compared through float64 as Value.Compare compares numbers: a NaN is neither
// less nor greater than anything, so it stays where it came first and never
// displaces another value.
func extremeInto[T int64 | float64](vals []T, rows []int32, nulls table.Bitmap, gids []int32, best []int32, max bool) {
	for i, ri := range rows {
		if nulls != nil && nulls.Get(int(ri)) {
			continue
		}
		bp := &best[gids[i]]
		if *bp < 0 {
			*bp = ri
			continue
		}
		if v, w := float64(vals[ri]), float64(vals[*bp]); max && v > w || !max && v < w {
			*bp = ri
		}
	}
}

// value is the call's answer over group g, as aggState.value gives it.
func (a *aggAcc) value(g int) table.Value {
	switch a.call.Name {
	case "COUNT":
		return table.NewInt(a.counts[g])
	case "SUM":
		if a.counts[g] > 0 {
			return table.NewFloat(a.sums[g])
		}
	case "AVG":
		if a.counts[g] > 0 {
			return table.NewFloat(a.sums[g] / float64(a.counts[g]))
		}
	case "MIN", "MAX":
		if a.best != nil && a.best[g] >= 0 {
			return a.col.Value(int(a.best[g]))
		}
	}
	return table.Null
}

// aggPlan is how aggregateCol will run a statement, fixed from the statement
// and the tables' columns before a row is read (Explain prints it): typed, or —
// fallback naming why — the row-at-a-time loop over byte keys and boxed Values,
// which alone evaluates expressions (and raises their errors in row order).
type aggPlan struct {
	keys     []groupKey
	accs     []aggAcc
	total    uint64 // running codes are below total
	fallback string
}

func planAggregate(b *binder, stmt *sqlparse.Select, calls []*sqlparse.Call) *aggPlan {
	p := &aggPlan{keys: make([]groupKey, 0, len(stmt.GroupBy)), accs: make([]aggAcc, 0, len(calls)), total: 1}
	column := func(e sqlparse.Expr, what string) (bd binding, ok bool) {
		ref, isRef := e.(*sqlparse.ColumnRef)
		if !isRef {
			p.fallback = "expression " + what
			return bd, false
		}
		bd, _ = b.resolve(ref) // bound before anything runs
		return bd, true
	}
	for _, ge := range stmt.GroupBy {
		bd, ok := column(ge, "key")
		if !ok {
			return p
		}
		k := newGroupKey(b, bd)
		if p.total > math.MaxUint64/k.card {
			k.flush, p.total = true, hashedCard
		}
		p.total *= k.card
		p.keys = append(p.keys, k)
	}
	for _, c := range calls {
		a := aggAcc{call: c}
		if !c.Star {
			bd, ok := column(c.Arg, "argument")
			if !ok {
				return p
			}
			a.bd, a.col = bd, b.col(bd)
		}
		p.accs = append(p.accs, a)
	}
	return p
}

// describe is the plan's parenthesis in EXPLAIN's aggregate line ("" for a
// typed global aggregate, which has no key to encode).
func (p *aggPlan) describe() string {
	if p.fallback != "" {
		return " (row keys: " + p.fallback + ")"
	}
	if len(p.keys) == 0 {
		return ""
	}
	encs := make([]string, len(p.keys))
	for i := range p.keys {
		encs[i] = p.keys[i].String()
	}
	return " (" + strings.Join(encs, ", ") + ")"
}

// directSlots is the largest direct-address table worth zeroing for n rows: a
// few slots per row (a hash lookup per row costs more), 4 MB at most.
func directSlots(n int) uint64 {
	return uint64(max(1<<10, min(4*n, 1<<20)))
}

// aggScratch is one chunk's running codes and group ids.
type aggScratch struct {
	acc  [guardInterval]uint64
	gids [guardInterval]int32
}

var aggScratchPool = sync.Pool{New: func() any { return new(aggScratch) }}

// Aggregations that ran the row-at-a-time loop.
const metricAggregateFallback = "engine/aggregate/fallback"

var aggregateFallback = obs.Default().Counter(metricAggregateFallback)

// aggregateCol is the columnar grouping/aggregation operator: planAggregate's
// typed plan over the batch, chunk by chunk, or aggregateRows. Groups come out
// in first-appearance order through emitAggRows either way, so results match
// the row engine byte for byte (float sums add up in row order).
func aggregateCol(b *binder, stmt *sqlparse.Select, jb *joinedBatch, g *guard, span *obs.Span) (*table.RowSet, error) {
	if stmt.Star {
		return nil, errStarAggregate
	}
	calls, callIndex := collectAggCalls(stmt)
	p := planAggregate(b, stmt, calls)
	if p.fallback != "" {
		if span != nil {
			span.Annotate("rows_in", jb.n)
			span.Annotate("via", "rows")
		}
		aggregateFallback.Inc()
		return aggregateRows(b, stmt, jb.n, func(i int) evalEnv { return evalEnv{b: b, batch: jb, idx: i} }, g)
	}

	// Running code -> group id + 1: a direct-address table when the keys' codes
	// span few enough values, else a hash table — or nothing, when the one key's
	// values were numbered as they appeared.
	var direct []int32
	var hashed *u64table
	via := "hash"
	switch {
	case p.total <= directSlots(jb.n):
		direct, via = make([]int32, p.total), "codes"
	case len(p.keys) > 1 || p.keys[0].enc != encHashed:
		hashed = newU64table()
	}
	for i := range p.keys {
		k := &p.keys[i]
		k.rows = jb.cols[k.bd.rel]
		if k.enc == encHashed {
			k.vals = newU64table()
		}
		if k.flush {
			k.renum = newU64table()
		}
	}
	for i := range p.accs {
		if a := &p.accs[i]; a.col != nil {
			a.rows = jb.cols[a.bd.rel]
		}
	}

	var reps []int32 // group id -> the batch row that opened the group
	sc := aggScratchPool.Get().(*aggScratch)
	defer aggScratchPool.Put(sc)
	for lo := 0; lo < jb.n; lo += guardInterval {
		m := min(guardInterval, jb.n-lo)
		if err := g.tick(m); err != nil {
			return nil, err
		}
		acc, gids := sc.acc[:m], sc.gids[:m]
		clear(acc)
		for i := range p.keys {
			p.keys[i].fold(lo, acc)
		}
		for i, c := range acc {
			var gid int32
			switch {
			case direct != nil:
				if direct[c] == 0 {
					direct[c] = int32(len(reps)) + 1
				}
				gid = direct[c] - 1
			case hashed != nil:
				gid = hashed.id(c)
			default:
				gid = int32(c)
			}
			if int(gid) == len(reps) {
				reps = append(reps, int32(lo+i))
			}
			gids[i] = gid
		}
		for i := range p.accs {
			p.accs[i].grow(len(reps))
			p.accs[i].add(lo, gids)
		}
	}
	if span != nil {
		span.Annotate("rows_in", jb.n)
		span.Annotate("groups", len(reps))
		span.Annotate("via", via)
	}

	n := len(reps)
	if len(stmt.GroupBy) == 0 && n == 0 {
		// Global aggregation over an empty input still yields one row.
		n = 1
		for i := range p.accs {
			p.accs[i].grow(1)
		}
	}
	return emitAggRows(b, stmt, n, len(calls), func(gi int, gr *group) {
		if gr.hasRep = gi < len(reps); gr.hasRep {
			gr.rep = evalEnv{b: b, batch: jb, idx: int(reps[gi])}
		}
		for ci := range p.accs {
			gr.vals[ci] = p.accs[ci].value(gi)
		}
	}, callIndex, g)
}
