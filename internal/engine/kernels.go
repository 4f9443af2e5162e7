package engine

import (
	"math"
	"slices"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Vectorized predicate kernels. compileFilters translates a relation's filter
// expressions into kernels that run tight typed loops over the table's column
// vectors, filtering a selection vector in place. Compilation is
// all-or-nothing per relation: if any filter cannot be compiled (non-literal
// comparand, an expression form with data-dependent
// evaluation errors), the whole relation falls back to per-row evalExpr so
// error ordering stays byte-identical to the row engine.
//
// Each predicate form reduces to a test of one value and hands it to the
// constructor of its column's kind: numericKernel (int and float cells,
// compared as float64), dictKernel (strings, tested once per dictionary
// entry) or boolKernel; an int column against exact-int bounds takes
// rangeKernel, whose range the scan's index path can read. No test passes a
// NULL cell but IS NULL's; AND and OR compose kernels.
//
// Compiled kernels are infallible by construction — every expression form
// that can raise an evaluation error is rejected at compile time — which is
// what makes the selection-vector composition below (AND chains, OR unions)
// semantically equivalent to the row engine's short-circuit evaluation: with
// no errors possible, evaluation order affects nothing but speed.
//
// Semantics contract: a row passes a filter iff the row engine's evalExpr
// would return a non-NULL truthy value for it. NULL comparisons fail, kind
// classes follow Value.Compare/Value.Equal (numeric pairs compare through
// float64; mismatched non-numeric kinds order by Kind ordinal), and
// dictionary kernels evaluate string predicates once per distinct value.
type kernel struct {
	// sel filters the selection in place, returning the surviving prefix.
	// Selections are ascending row indices; kernels preserve order.
	sel func(sel []int32) []int32
	// prune reports whether zone chunk m (rows [m*ZoneChunkRows, ...)) can be
	// skipped because no row in it can pass. nil disables pruning.
	prune func(m int) bool
	// constFalse marks a kernel that passes no row at all (every chunk of
	// every morsel prunes).
	constFalse bool
	// ints, when set, says the kernel passes exactly the non-NULL cells of an
	// int column that lie in a range: the rows a dense join index holds for it
	// (the scan's index path, colexec.go).
	ints *intRange
}

// intRange is lo <= cell <= hi over int column col of the kernel's relation.
type intRange struct {
	col    int
	lo, hi int64
}

// compileFilters compiles every filter or reports ok=false (fall back to
// per-row evaluation for the whole relation).
func compileFilters(b *binder, rel int, cs *table.ColumnSet, filters []sqlparse.Expr) ([]kernel, bool) {
	ks := make([]kernel, 0, len(filters))
	for _, f := range filters {
		k, ok := compileExpr(b, rel, cs, f, false)
		if !ok {
			return nil, false
		}
		ks = append(ks, k)
	}
	return ks, true
}

// pruneMorsel reports whether morsel m is skippable: some kernel proves no
// row of the chunk passes its filter (filters are conjunctive).
func pruneMorsel(ks []kernel, m int) bool {
	for i := range ks {
		if ks[i].constFalse || ks[i].prune != nil && ks[i].prune(m) {
			return true
		}
	}
	return false
}

func hasColumnRef(e sqlparse.Expr) bool {
	found := false
	sqlparse.Walk(e, func(n sqlparse.Expr) {
		if _, ok := n.(*sqlparse.ColumnRef); ok {
			found = true
		}
	})
	return found
}

// compileExpr compiles one predicate expression. negate means the expression
// appears under an odd number of NOTs; it is folded into the compiled form
// (NOT(a < b) compiles as a >= b, which matches the row engine exactly
// because NULL operands fail both the original and the complement).
func compileExpr(b *binder, rel int, cs *table.ColumnSet, e sqlparse.Expr, negate bool) (kernel, bool) {
	// Constant subexpression: evaluate once. The row engine evaluates it per
	// row with an identical outcome; expressions that would error per row
	// (e.g. aggregate calls in WHERE) fail compilation and fall back.
	if !hasColumnRef(e) {
		v, err := evalExpr(e, evalEnv{b: b})
		if err != nil {
			return kernel{}, false
		}
		// NOT NULL is NULL (fails); NOT x flips truthiness.
		if !v.IsNull() && truthy(v) != negate {
			return trueKernel, true
		}
		return falseKernel, true
	}

	switch x := e.(type) {
	case *sqlparse.Unary:
		if x.Op == "NOT" {
			return compileExpr(b, rel, cs, x.X, !negate)
		}
	case *sqlparse.Binary:
		switch x.Op {
		case "AND", "OR":
			if negate {
				return kernel{}, false
			}
			l, ok := compileExpr(b, rel, cs, x.Left, false)
			if !ok {
				return kernel{}, false
			}
			r, ok := compileExpr(b, rel, cs, x.Right, false)
			if !ok {
				return kernel{}, false
			}
			if x.Op == "AND" {
				return andKernel(l, r), true
			}
			return orKernel(l, r), true
		case "=", "<>", "<", "<=", ">", ">=":
			op, col, lit := x.Op, x.Left, x.Right
			if _, ok := col.(*sqlparse.Literal); ok {
				op, col, lit = flipOp(op), lit, col
			}
			ci, ok := colOperand(b, rel, col)
			l, lok := lit.(*sqlparse.Literal)
			if !ok || !lok {
				return kernel{}, false
			}
			if negate {
				op = complementOp(op)
			}
			return compileCmp(cs, ci, l.Value, op)
		}
	case *sqlparse.ColumnRef:
		// Bare column as predicate: pass iff non-NULL and truthy.
		if ci, ok := colOperand(b, rel, x); ok {
			return truthyKernel(cs, ci, negate)
		}
	case *sqlparse.In:
		ci, ok := colOperand(b, rel, x.X)
		if !ok {
			return kernel{}, false
		}
		items := make([]table.Value, 0, len(x.List))
		for _, item := range x.List {
			lit, ok := item.(*sqlparse.Literal)
			if !ok {
				return kernel{}, false
			}
			items = append(items, lit.Value)
		}
		return compileIn(cs, ci, items, x.Not != negate)
	case *sqlparse.Between:
		ci, ok := colOperand(b, rel, x.X)
		lo, lok := x.Lo.(*sqlparse.Literal)
		hi, hok := x.Hi.(*sqlparse.Literal)
		if !ok || !lok || !hok {
			return kernel{}, false
		}
		return compileBetween(cs, ci, lo.Value, hi.Value, x.Not != negate)
	case *sqlparse.Like:
		// LIKE on non-string columns stringifies per row; leave it to the
		// per-row scan.
		ci, ok := colOperand(b, rel, x.X)
		if !ok || cs.Cols[ci].Kind != table.KindString {
			return kernel{}, false
		}
		re, err := likeRegexp(x.Pattern)
		if err != nil {
			// Bad pattern: evalExpr errors per evaluated row; fall back so the
			// error surfaces at the first row read.
			return kernel{}, false
		}
		not := x.Not != negate
		return dictKernel(&cs.Cols[ci], func(v table.Value) bool { return re.MatchString(v.Str) != not }), true
	case *sqlparse.IsNull:
		if ci, ok := colOperand(b, rel, x.X); ok {
			return isNullKernel(&cs.Cols[ci], x.Not != negate), true
		}
	}
	return kernel{}, false
}

// colOperand resolves e to a column of rel: ok only for a column reference
// bound to rel.
func colOperand(b *binder, rel int, e sqlparse.Expr) (int, bool) {
	ref, ok := e.(*sqlparse.ColumnRef)
	if !ok {
		return 0, false
	}
	bd, err := b.resolve(ref)
	if err != nil || bd.rel != rel {
		return 0, false
	}
	return bd.col, true
}

// flipOp mirrors a comparison for a swapped operand order (5 < x ⇒ x > 5).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// complementOp negates a comparison over non-NULL operands.
func complementOp(op string) string {
	switch op {
	case "=":
		return "<>"
	case "<>":
		return "="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	}
	return op
}

// cmpSatisfied replicates the row engine's comparison outcome for non-NULL
// values (Equal for =/<>, Compare otherwise).
func cmpSatisfied(v, o table.Value, op string) bool {
	switch op {
	case "=":
		return v.Equal(o)
	case "<>":
		return !v.Equal(o)
	}
	cmp := v.Compare(o)
	switch op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

func emptySel(sel []int32) []int32 { return sel[:0] }
func allSel(sel []int32) []int32   { return sel }

// falseKernel passes no row, trueKernel every row: the constant filters.
var falseKernel, trueKernel = kernel{constFalse: true, sel: emptySel}, kernel{sel: allSel}

// zonePrune prunes a zone of c that holds no value, or that skip, when set,
// proves holds no passing value.
func zonePrune(c *table.ColumnData, skip func(z *table.Zone) bool) func(m int) bool {
	zones := c.Zones
	if skip == nil {
		return func(m int) bool { return !zones[m].HasValue }
	}
	return func(m int) bool { z := &zones[m]; return !z.HasValue || skip(z) }
}

// compileCmp builds the kernel for column ci <op> lv.
func compileCmp(cs *table.ColumnSet, ci int, lv table.Value, op string) (kernel, bool) {
	c := &cs.Cols[ci]
	if lv.IsNull() {
		// cmp NULL is NULL: nothing passes.
		return falseKernel, true
	}
	keep := func(v table.Value) bool { return cmpSatisfied(v, lv, op) }
	switch c.Kind {
	case table.KindInt, table.KindFloat:
		if lv.IsNumeric() {
			return numericCmpKernel(c, ci, op, lv.AsFloat()), true
		}
		// Different kind classes: the outcome is the same for every non-NULL
		// value of the column (Compare orders by Kind; Equal is false).
		rep := table.NewInt(0)
		if c.Kind == table.KindFloat {
			rep = table.NewFloat(0.5)
		}
		if keep(rep) {
			return isNullKernel(c, true), true
		}
		return falseKernel, true
	case table.KindString:
		return dictKernel(c, keep), true
	case table.KindBool:
		return boolKernel(c, keep), true
	}
	return kernel{}, false
}

// exactInt reports whether f is an integer of magnitude below 2^53, and which:
// against such a bound an int64 cell compares as its float64 conversion does.
// (Cells beyond ±2^53 round, but monotonically and never across the bound; at
// 2^53 itself 2^53+1 rounds onto the bound and the two comparisons part.)
func exactInt(f float64) (int64, bool) {
	return int64(f), f == math.Trunc(f) && math.Abs(f) < 1<<53
}

// intRangeSel is the selection loop of lo <= cell <= hi (not: outside it) over a
// non-NULL int cell: one unsigned comparison inline, no conversion, no call. The
// surviving prefix is written branch-free behind the read position.
func intRangeSel(c *table.ColumnData, lo, hi int64, not bool) func(sel []int32) []int32 {
	vals, nulls, span := c.Ints, c.Nulls, uint64(hi)-uint64(lo)
	if nulls == nil {
		return func(sel []int32) []int32 {
			n := 0
			for _, i := range sel {
				sel[n] = i
				if (uint64(vals[i])-uint64(lo) <= span) != not {
					n++
				}
			}
			return sel[:n]
		}
	}
	return func(sel []int32) []int32 {
		n := 0
		for _, i := range sel {
			sel[n] = i
			if (uint64(vals[i])-uint64(lo) <= span) != not && !nulls.Get(int(i)) {
				n++
			}
		}
		return sel[:n]
	}
}

// rangeKernel passes the non-NULL cells of int column ci in [lo, hi] (not:
// outside it) through intRangeSel; the pass set of the range itself is recorded
// for the scan's index path.
func rangeKernel(c *table.ColumnData, ci int, lo, hi int64, not bool, skip func(z *table.Zone) bool) kernel {
	k := kernel{sel: intRangeSel(c, lo, hi, not), prune: zonePrune(c, skip)}
	if !not {
		k.ints = &intRange{ci, lo, hi}
	}
	return k
}

// numericKernel passes the non-NULL cells of int or float column c whose
// float64 value test accepts; skip prunes as in zonePrune.
func numericKernel(c *table.ColumnData, test func(float64) bool, skip func(z *table.Zone) bool) kernel {
	k := kernel{prune: zonePrune(c, skip)}
	if c.Kind == table.KindInt {
		k.sel = testSel(c.Ints, c.Nulls, test)
	} else {
		k.sel = testSel(c.Floats, c.Nulls, test)
	}
	return k
}

// testSel is numericKernel's selection loop over a column's cells vals.
func testSel[T int64 | float64](vals []T, nulls table.Bitmap, test func(float64) bool) func(sel []int32) []int32 {
	if nulls == nil {
		return func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if test(float64(vals[i])) {
					out = append(out, i)
				}
			}
			return out
		}
	}
	return func(sel []int32) []int32 {
		out := sel[:0]
		for _, i := range sel {
			if !nulls.Get(int(i)) && test(float64(vals[i])) {
				out = append(out, i)
			}
		}
		return out
	}
}

// numericCmpKernel compares column ci, int or float, against a numeric literal:
// in int64 when the column is int and the literal an exactInt (every operator
// but <> then records its range), otherwise through float64, exactly like
// Value.Compare on numeric pairs.
func numericCmpKernel(c *table.ColumnData, ci int, op string, lit float64) kernel {
	var test func(v float64) bool
	var skip func(z *table.Zone) bool
	switch op {
	case "=":
		test = func(v float64) bool { return v == lit }
		skip = func(z *table.Zone) bool { return lit < z.Min || lit > z.Max }
	case "<>":
		test = func(v float64) bool { return v != lit }
		skip = func(z *table.Zone) bool { return z.Min == lit && z.Max == lit }
	case "<":
		test = func(v float64) bool { return v < lit }
		skip = func(z *table.Zone) bool { return z.Min >= lit }
	case "<=":
		// Not v <= lit: Value.Compare returns 0 for NaN operands, so the row
		// engine passes NaN here (cmp <= 0). !(v > lit) reproduces that.
		test = func(v float64) bool { return !(v > lit) }
		skip = func(z *table.Zone) bool { return z.Min > lit }
	case ">":
		test = func(v float64) bool { return v > lit }
		skip = func(z *table.Zone) bool { return z.Max <= lit }
	case ">=":
		test = func(v float64) bool { return !(v < lit) } // NaN passes, as in Compare
		skip = func(z *table.Zone) bool { return z.Max < lit }
	}
	l, ok := exactInt(lit)
	if !ok || c.Kind != table.KindInt {
		return numericKernel(c, test, skip)
	}
	// v op l is one of: v in [l, l], not in it, in (-inf, l) ... [l, +inf).
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch op {
	case "=", "<>":
		lo, hi = l, l
	case "<":
		hi = l - 1
	case "<=":
		hi = l
	case ">":
		lo = l + 1
	case ">=":
		lo = l
	}
	return rangeKernel(c, ci, lo, hi, op == "<>", skip)
}

// dictKernel passes the non-NULL rows of dictionary column c whose value keep
// accepts, asking keep once per distinct string. A mask that keeps no code is
// constant-false. The surviving prefix is written branch-free behind the read
// position, like intRangeSel's: the write position moves on by the row's mask
// byte, and a NULL row's code, -1, reads the zero byte in front of the mask.
func dictKernel(c *table.ColumnData, keep func(table.Value) bool) kernel {
	mask, any := make([]uint8, c.Dict.Len()+1), false
	for code, s := range c.Dict.Strs {
		if keep(table.NewString(s)) {
			mask[code+1], any = 1, true
		}
	}
	if !any {
		return falseKernel
	}
	codes := c.Codes
	return kernel{
		sel: func(sel []int32) []int32 {
			n := 0
			for _, i := range sel {
				sel[n] = i
				n += int(mask[codes[i]+1])
			}
			return sel[:n]
		},
		prune: zonePrune(c, nil),
	}
}

// boolKernel is dictKernel for a bool column (mask[0] for false cells, mask[1]
// for true ones); a NULL row's bit in the bitmap clears its mask byte.
func boolKernel(c *table.ColumnData, keep func(table.Value) bool) kernel {
	var mask [2]uint8
	for v, b := range [2]bool{false, true} {
		if keep(table.NewBool(b)) {
			mask[v] = 1
		}
	}
	if mask == [2]uint8{} {
		return falseKernel
	}
	vals, nulls := c.Bools, c.Nulls
	k := kernel{prune: zonePrune(c, nil)}
	if nulls == nil {
		k.sel = func(sel []int32) []int32 {
			n := 0
			for _, i := range sel {
				sel[n] = i
				v := 0
				if vals[i] {
					v = 1
				}
				n += int(mask[v])
			}
			return sel[:n]
		}
		return k
	}
	k.sel = func(sel []int32) []int32 {
		n := 0
		for _, i := range sel {
			sel[n] = i
			v := 0
			if vals[i] {
				v = 1
			}
			n += int(mask[v]) &^ nulls.Bit(int(i))
		}
		return sel[:n]
	}
	return k
}

// truthyKernel passes rows of column ci whose value is non-NULL and truthy (or
// falsy, when negated): the bare-column-as-predicate form. A number is truthy
// iff it is not 0, NaN included, so it compiles as ci <> 0 (negated: ci = 0).
func truthyKernel(cs *table.ColumnSet, ci int, negate bool) (kernel, bool) {
	c := &cs.Cols[ci]
	keep := func(v table.Value) bool { return truthy(v) != negate }
	switch c.Kind {
	case table.KindInt, table.KindFloat:
		if negate {
			return numericCmpKernel(c, ci, "=", 0), true
		}
		return numericCmpKernel(c, ci, "<>", 0), true
	case table.KindString:
		return dictKernel(c, keep), true
	case table.KindBool:
		return boolKernel(c, keep), true
	}
	return kernel{}, false
}

// isNullKernel implements IS NULL (not=false) and IS NOT NULL (not=true).
func isNullKernel(c *table.ColumnData, not bool) kernel {
	nulls := c.Nulls
	if nulls == nil {
		if not {
			return kernel{sel: allSel, prune: zonePrune(c, nil)}
		}
		return falseKernel
	}
	k := kernel{sel: func(sel []int32) []int32 {
		out := sel[:0]
		for _, i := range sel {
			if nulls.Get(int(i)) != not {
				out = append(out, i)
			}
		}
		return out
	}}
	if not {
		k.prune = zonePrune(c, nil)
	} else {
		zones := c.Zones
		k.prune = func(m int) bool { return !zones[m].HasNull }
	}
	return k
}

// compileIn builds the membership kernel for column ci [NOT] IN (items...).
func compileIn(cs *table.ColumnSet, ci int, items []table.Value, not bool) (kernel, bool) {
	c := &cs.Cols[ci]
	keep := func(v table.Value) bool { return slices.ContainsFunc(items, v.Equal) != not }
	switch c.Kind {
	case table.KindInt, table.KindFloat:
		// Only numeric items can equal a numeric cell (Value.Equal).
		var members []float64
		for _, it := range items {
			if it.IsNumeric() {
				members = append(members, it.AsFloat())
			}
		}
		return numericInKernel(c, members, not), true
	case table.KindString:
		return dictKernel(c, keep), true
	case table.KindBool:
		return boolKernel(c, keep), true
	}
	return kernel{}, false
}

func numericInKernel(c *table.ColumnData, members []float64, not bool) kernel {
	if len(members) == 0 {
		if !not {
			return falseKernel
		}
		return isNullKernel(c, true)
	}
	var skip func(z *table.Zone) bool
	if !not {
		skip = func(z *table.Zone) bool {
			for _, mv := range members {
				if mv >= z.Min && mv <= z.Max {
					return false
				}
			}
			return true
		}
	}
	return numericKernel(c, func(v float64) bool { return slices.Contains(members, v) != not }, skip)
}

// compileBetween builds the kernel for column ci [NOT] BETWEEN lo AND hi.
func compileBetween(cs *table.ColumnSet, ci int, lo, hi table.Value, not bool) (kernel, bool) {
	c := &cs.Cols[ci]
	if lo.IsNull() || hi.IsNull() {
		// BETWEEN with a NULL bound is NULL for every row.
		return falseKernel, true
	}
	switch c.Kind {
	case table.KindInt, table.KindFloat:
		if !lo.IsNumeric() || !hi.IsNumeric() {
			// Kind-mismatched bounds have constant Compare signs; rare enough
			// to leave to the per-row scan.
			return kernel{}, false
		}
		return numericBetweenKernel(c, ci, lo.AsFloat(), hi.AsFloat(), not), true
	case table.KindString:
		return dictKernel(c, func(v table.Value) bool { return (v.Compare(lo) >= 0 && v.Compare(hi) <= 0) != not }), true
	}
	return kernel{}, false
}

// numericBetweenKernel is compileBetween over an int or float column; over an
// int column between exactInt bounds, BETWEEN records its range.
func numericBetweenKernel(c *table.ColumnData, ci int, lo, hi float64, not bool) kernel {
	skip := func(z *table.Zone) bool { return z.Max < lo || z.Min > hi }
	if not {
		skip = func(z *table.Zone) bool { return z.Min >= lo && z.Max <= hi }
	}
	if l, lok := exactInt(lo); lok && c.Kind == table.KindInt {
		if h, hok := exactInt(hi); hok && l <= h { // an int cell is never NaN
			return rangeKernel(c, ci, l, h, not, skip)
		}
	}
	// The row engine tests Compare(v,lo) >= 0 && Compare(v,hi) <= 0, and
	// Compare returns 0 for NaN operands — so NaN is BETWEEN everything.
	// !(v < lo) && !(v > hi) reproduces that exactly.
	return numericKernel(c, func(v float64) bool { return (!(v < lo) && !(v > hi)) != not }, skip)
}

// andKernel chains two kernels: r sees only l's survivors, mirroring the row
// engine's short-circuit AND (safe because kernels cannot error).
func andKernel(l, r kernel) kernel {
	k := kernel{constFalse: l.constFalse || r.constFalse}
	k.sel = func(sel []int32) []int32 {
		sel = l.sel(sel)
		if len(sel) == 0 {
			return sel
		}
		return r.sel(sel)
	}
	switch {
	case l.prune != nil && r.prune != nil:
		lp, rp := l.prune, r.prune
		k.prune = func(m int) bool { return lp(m) || rp(m) }
	case l.prune != nil:
		k.prune = l.prune
	case r.prune != nil:
		k.prune = r.prune
	}
	return k
}

// orKernel unions two kernels' pass sets over the incoming selection,
// preserving ascending order: pass iff l passes or r passes.
func orKernel(l, r kernel) kernel {
	k := kernel{constFalse: l.constFalse && r.constFalse}
	k.sel = func(sel []int32) []int32 {
		lsel := append([]int32(nil), sel...)
		lout := l.sel(lsel)
		// Complement: rows of sel not passed by l (both ascending).
		comp := make([]int32, 0, len(sel)-len(lout))
		j := 0
		for _, i := range sel {
			if j < len(lout) && lout[j] == i {
				j++
				continue
			}
			comp = append(comp, i)
		}
		rout := r.sel(comp)
		// Merge the two disjoint ascending sets back into sel.
		out := sel[:0]
		a, c := 0, 0
		for a < len(lout) && c < len(rout) {
			if lout[a] < rout[c] {
				out = append(out, lout[a])
				a++
			} else {
				out = append(out, rout[c])
				c++
			}
		}
		out = append(out, lout[a:]...)
		out = append(out, rout[c:]...)
		return out
	}
	if l.prune != nil && r.prune != nil {
		lp, rp := l.prune, r.prune
		k.prune = func(m int) bool { return lp(m) && rp(m) }
	}
	return k
}
