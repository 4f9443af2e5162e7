package engine

import (
	"math"

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
		if ks[i].constFalse {
			return true
		}
		if ks[i].prune != nil && ks[i].prune(m) {
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
		pass := !v.IsNull() && truthy(v)
		if negate {
			// NOT NULL is NULL (fails); NOT x flips truthiness.
			pass = !v.IsNull() && !truthy(v)
		}
		if pass {
			return passAllKernel(), true
		}
		return kernel{constFalse: true, sel: emptySel}, true
	}

	switch x := e.(type) {
	case *sqlparse.Unary:
		if x.Op == "NOT" {
			return compileExpr(b, rel, cs, x.X, !negate)
		}
		return kernel{}, false
	case *sqlparse.Binary:
		switch x.Op {
		case "AND":
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
			return andKernel(l, r), true
		case "OR":
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
			return orKernel(l, r), true
		case "=", "<>", "<", "<=", ">", ">=":
			op := x.Op
			col, lit, ok := splitCmp(b, rel, x)
			if !ok {
				return kernel{}, false
			}
			if col.flipped {
				op = flipOp(op)
			}
			if negate {
				op = complementOp(op)
			}
			return compileCmp(cs, col.col, lit, op)
		default:
			return kernel{}, false
		}
	case *sqlparse.ColumnRef:
		// Bare column as predicate: pass iff non-NULL and truthy.
		ci, ok := relColumn(b, rel, x)
		if !ok {
			return kernel{}, false
		}
		return truthyKernel(&cs.Cols[ci], negate), true
	case *sqlparse.In:
		ref, ok := x.X.(*sqlparse.ColumnRef)
		if !ok {
			return kernel{}, false
		}
		ci, ok := relColumn(b, rel, ref)
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
		return compileIn(&cs.Cols[ci], items, x.Not != negate)
	case *sqlparse.Between:
		ref, ok := x.X.(*sqlparse.ColumnRef)
		if !ok {
			return kernel{}, false
		}
		ci, ok := relColumn(b, rel, ref)
		if !ok {
			return kernel{}, false
		}
		lo, lok := x.Lo.(*sqlparse.Literal)
		hi, hok := x.Hi.(*sqlparse.Literal)
		if !lok || !hok {
			return kernel{}, false
		}
		return compileBetween(cs, ci, lo.Value, hi.Value, x.Not != negate)
	case *sqlparse.Like:
		ref, ok := x.X.(*sqlparse.ColumnRef)
		if !ok {
			return kernel{}, false
		}
		ci, ok := relColumn(b, rel, ref)
		if !ok {
			return kernel{}, false
		}
		c := &cs.Cols[ci]
		if c.Kind != table.KindString {
			// LIKE on non-string columns stringifies per row; leave it to the
			// per-row scan.
			return kernel{}, false
		}
		re, err := likeRegexp(x.Pattern)
		if err != nil {
			// Bad pattern: evalExpr errors per evaluated row; fall back so the
			// error surfaces at the first row read.
			return kernel{}, false
		}
		not := x.Not != negate
		mask := make([]bool, c.Dict.Len())
		for i, s := range c.Dict.Strs {
			mask[i] = re.MatchString(s) != not
		}
		return maskKernel(c, mask), true
	case *sqlparse.IsNull:
		ref, ok := x.X.(*sqlparse.ColumnRef)
		if !ok {
			return kernel{}, false
		}
		ci, ok := relColumn(b, rel, ref)
		if !ok {
			return kernel{}, false
		}
		return isNullKernel(&cs.Cols[ci], x.Not != negate), true
	}
	return kernel{}, false
}

// splitCmp extracts the (column, literal) operands of a comparison on rel.
type cmpOperand struct {
	col     int
	flipped bool // literal was on the left
}

func splitCmp(b *binder, rel int, x *sqlparse.Binary) (cmpOperand, *sqlparse.Literal, bool) {
	if ref, ok := x.Left.(*sqlparse.ColumnRef); ok {
		if lit, ok := x.Right.(*sqlparse.Literal); ok {
			if ci, ok := relColumn(b, rel, ref); ok {
				return cmpOperand{col: ci}, lit, true
			}
		}
	}
	if ref, ok := x.Right.(*sqlparse.ColumnRef); ok {
		if lit, ok := x.Left.(*sqlparse.Literal); ok {
			if ci, ok := relColumn(b, rel, ref); ok {
				return cmpOperand{col: ci, flipped: true}, lit, true
			}
		}
	}
	return cmpOperand{}, nil, false
}

// relColumn resolves ref to a column index on rel.
func relColumn(b *binder, rel int, ref *sqlparse.ColumnRef) (int, bool) {
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

// passAllKernel passes every row (a constant-true filter).
func passAllKernel() kernel {
	return kernel{sel: func(sel []int32) []int32 { return sel }}
}

// passNonNullKernel passes every non-NULL row of c (a comparison whose
// outcome depends only on kind ordering, e.g. intcol < 'text').
func passNonNullKernel(c *table.ColumnData) kernel {
	nulls := c.Nulls
	zones := c.Zones
	return kernel{
		sel: func(sel []int32) []int32 {
			if nulls == nil {
				return sel
			}
			out := sel[:0]
			for _, i := range sel {
				if !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
			return out
		},
		prune: func(m int) bool { return !zones[m].HasValue },
	}
}

// compileCmp builds the kernel for <col> <op> <lit>.
func compileCmp(cs *table.ColumnSet, ci int, lit *sqlparse.Literal, op string) (kernel, bool) {
	c := &cs.Cols[ci]
	lv := lit.Value
	if lv.IsNull() {
		// cmp NULL is NULL: nothing passes.
		return kernel{constFalse: true, sel: emptySel}, true
	}
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
		if cmpSatisfied(rep, lv, op) {
			return passNonNullKernel(c), true
		}
		return kernel{constFalse: true, sel: emptySel}, true
	case table.KindString:
		mask := make([]bool, c.Dict.Len())
		for i, s := range c.Dict.Strs {
			mask[i] = cmpSatisfied(table.NewString(s), lv, op)
		}
		return maskKernel(c, mask), true
	case table.KindBool:
		var mask2 [2]bool
		mask2[0] = cmpSatisfied(table.NewBool(false), lv, op)
		mask2[1] = cmpSatisfied(table.NewBool(true), lv, op)
		return boolMaskKernel(c, mask2), true
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

// numericCmpKernel compares column ci, int or float, against a numeric literal:
// in int64 when the column is int and the literal an exactInt (every operator
// but <> then records its range), otherwise through float64, exactly like
// Value.Compare on numeric pairs.
func numericCmpKernel(c *table.ColumnData, ci int, op string, lit float64) kernel {
	nulls := c.Nulls
	zones := c.Zones
	var pass func(v float64) bool
	var prune func(m int) bool
	switch op {
	case "=":
		pass = func(v float64) bool { return v == lit }
		prune = func(m int) bool { z := &zones[m]; return !z.HasValue || lit < z.Min || lit > z.Max }
	case "<>":
		pass = func(v float64) bool { return v != lit }
		prune = func(m int) bool { z := &zones[m]; return !z.HasValue || (z.Min == lit && z.Max == lit) }
	case "<":
		pass = func(v float64) bool { return v < lit }
		prune = func(m int) bool { z := &zones[m]; return !z.HasValue || z.Min >= lit }
	case "<=":
		// Not v <= lit: Value.Compare returns 0 for NaN operands, so the row
		// engine passes NaN here (cmp <= 0). !(v > lit) reproduces that.
		pass = func(v float64) bool { return !(v > lit) }
		prune = func(m int) bool { z := &zones[m]; return !z.HasValue || z.Min > lit }
	case ">":
		pass = func(v float64) bool { return v > lit }
		prune = func(m int) bool { z := &zones[m]; return !z.HasValue || z.Max <= lit }
	case ">=":
		pass = func(v float64) bool { return !(v < lit) } // NaN passes, as in Compare
		prune = func(m int) bool { z := &zones[m]; return !z.HasValue || z.Max < lit }
	default:
		return kernel{}
	}
	k := kernel{prune: prune}
	if l, ok := exactInt(lit); ok && c.Kind == table.KindInt {
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
		k.sel = intRangeSel(c, lo, hi, op == "<>")
		if op != "<>" {
			k.ints = &intRange{ci, lo, hi}
		}
		return k
	}
	if c.Kind == table.KindInt {
		vals := c.Ints
		if nulls == nil {
			k.sel = func(sel []int32) []int32 {
				out := sel[:0]
				for _, i := range sel {
					if pass(float64(vals[i])) {
						out = append(out, i)
					}
				}
				return out
			}
		} else {
			k.sel = func(sel []int32) []int32 {
				out := sel[:0]
				for _, i := range sel {
					if !nulls.Get(int(i)) && pass(float64(vals[i])) {
						out = append(out, i)
					}
				}
				return out
			}
		}
	} else {
		vals := c.Floats
		if nulls == nil {
			k.sel = func(sel []int32) []int32 {
				out := sel[:0]
				for _, i := range sel {
					if pass(vals[i]) {
						out = append(out, i)
					}
				}
				return out
			}
		} else {
			k.sel = func(sel []int32) []int32 {
				out := sel[:0]
				for _, i := range sel {
					if !nulls.Get(int(i)) && pass(vals[i]) {
						out = append(out, i)
					}
				}
				return out
			}
		}
	}
	return k
}

// maskKernel passes non-NULL rows of a dictionary column whose code is set in
// mask. An all-false mask is constant-false. The surviving prefix is written
// branch-free behind the read position, like intRangeSel's: the write position
// moves on by the row's mask byte, and a NULL row's code, -1, reads the zero
// byte in front of the mask.
func maskKernel(c *table.ColumnData, mask []bool) kernel {
	mask8, any := make([]uint8, len(mask)+1), false
	for code, m := range mask {
		if m {
			mask8[code+1], any = 1, true
		}
	}
	if !any {
		return kernel{constFalse: true, sel: emptySel}
	}
	codes := c.Codes
	zones := c.Zones
	return kernel{
		sel: func(sel []int32) []int32 {
			n := 0
			for _, i := range sel {
				sel[n] = i
				n += int(mask8[codes[i]+1])
			}
			return sel[:n]
		},
		prune: func(m int) bool { return !zones[m].HasValue },
	}
}

// boolMaskKernel is maskKernel for boolean columns (mask2[0]=false cells,
// mask2[1]=true cells); a NULL row's bit in the bitmap clears its mask byte.
func boolMaskKernel(c *table.ColumnData, mask2 [2]bool) kernel {
	if !mask2[0] && !mask2[1] {
		return kernel{constFalse: true, sel: emptySel}
	}
	var mask8 [2]uint8
	for v, m := range mask2 {
		if m {
			mask8[v] = 1
		}
	}
	vals := c.Bools
	nulls := c.Nulls
	zones := c.Zones
	k := kernel{prune: func(m int) bool { return !zones[m].HasValue }}
	if nulls == nil {
		k.sel = func(sel []int32) []int32 {
			n := 0
			for _, i := range sel {
				sel[n] = i
				v := 0
				if vals[i] {
					v = 1
				}
				n += int(mask8[v])
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
			n += int(mask8[v]) &^ nulls.Bit(int(i))
		}
		return sel[:n]
	}
	return k
}

// truthyKernel passes rows whose value is non-NULL and truthy (or falsy,
// when negated): the bare-column-as-predicate form.
func truthyKernel(c *table.ColumnData, negate bool) kernel {
	nulls := c.Nulls
	zones := c.Zones
	switch c.Kind {
	case table.KindInt:
		vals := c.Ints
		k := kernel{sel: func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if (vals[i] != 0) != negate {
					out = append(out, i)
				}
			}
			return out
		}}
		if negate {
			k.prune = func(m int) bool { z := &zones[m]; return !z.HasValue || z.Min > 0 || z.Max < 0 }
		} else {
			k.prune = func(m int) bool { z := &zones[m]; return !z.HasValue || (z.Min == 0 && z.Max == 0) }
		}
		return k
	case table.KindFloat:
		vals := c.Floats
		k := kernel{sel: func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if (vals[i] != 0) != negate {
					out = append(out, i)
				}
			}
			return out
		}}
		if negate {
			k.prune = func(m int) bool { z := &zones[m]; return !z.HasValue || z.Min > 0 || z.Max < 0 }
		} else {
			k.prune = func(m int) bool { z := &zones[m]; return !z.HasValue || (z.Min == 0 && z.Max == 0) }
		}
		return k
	case table.KindString:
		mask := make([]bool, c.Dict.Len())
		for i, s := range c.Dict.Strs {
			mask[i] = (s != "") != negate
		}
		return maskKernel(c, mask)
	case table.KindBool:
		return boolMaskKernel(c, [2]bool{negate, !negate})
	}
	return kernel{}
}

// isNullKernel implements IS NULL (not=false) and IS NOT NULL (not=true).
func isNullKernel(c *table.ColumnData, not bool) kernel {
	nulls := c.Nulls
	zones := c.Zones
	if not {
		return kernel{
			sel: func(sel []int32) []int32 {
				if nulls == nil {
					return sel
				}
				out := sel[:0]
				for _, i := range sel {
					if !nulls.Get(int(i)) {
						out = append(out, i)
					}
				}
				return out
			},
			prune: func(m int) bool { return !zones[m].HasValue },
		}
	}
	if nulls == nil {
		return kernel{constFalse: true, sel: emptySel}
	}
	return kernel{
		sel: func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
			return out
		},
		prune: func(m int) bool { return !zones[m].HasNull },
	}
}

// compileIn builds the membership kernel for <col> [NOT] IN (literals...).
func compileIn(c *table.ColumnData, items []table.Value, not bool) (kernel, bool) {
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
		mask := make([]bool, c.Dict.Len())
		for ci, s := range c.Dict.Strs {
			member := false
			sv := table.NewString(s)
			for _, it := range items {
				if sv.Equal(it) {
					member = true
					break
				}
			}
			mask[ci] = member != not
		}
		return maskKernel(c, mask), true
	case table.KindBool:
		var mask2 [2]bool
		for bi, bv := range []table.Value{table.NewBool(false), table.NewBool(true)} {
			member := false
			for _, it := range items {
				if bv.Equal(it) {
					member = true
					break
				}
			}
			mask2[bi] = member != not
		}
		return boolMaskKernel(c, mask2), true
	}
	return kernel{}, false
}

func numericInKernel(c *table.ColumnData, members []float64, not bool) kernel {
	if len(members) == 0 {
		if !not {
			return kernel{constFalse: true, sel: emptySel}
		}
		return passNonNullKernel(c)
	}
	nulls := c.Nulls
	zones := c.Zones
	member := func(v float64) bool {
		for _, m := range members {
			if v == m {
				return true
			}
		}
		return false
	}
	k := kernel{}
	if not {
		k.prune = func(m int) bool { return !zones[m].HasValue }
	} else {
		k.prune = func(m int) bool {
			z := &zones[m]
			if !z.HasValue {
				return true
			}
			for _, mv := range members {
				if mv >= z.Min && mv <= z.Max {
					return false
				}
			}
			return true
		}
	}
	test := func(v float64) bool { return member(v) != not }
	if c.Kind == table.KindInt {
		vals := c.Ints
		k.sel = func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if test(float64(vals[i])) {
					out = append(out, i)
				}
			}
			return out
		}
	} else {
		vals := c.Floats
		k.sel = func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if test(vals[i]) {
					out = append(out, i)
				}
			}
			return out
		}
	}
	return k
}

// compileBetween builds the kernel for column ci [NOT] BETWEEN lo AND hi.
func compileBetween(cs *table.ColumnSet, ci int, lo, hi table.Value, not bool) (kernel, bool) {
	c := &cs.Cols[ci]
	if lo.IsNull() || hi.IsNull() {
		// BETWEEN with a NULL bound is NULL for every row.
		return kernel{constFalse: true, sel: emptySel}, true
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
		mask := make([]bool, c.Dict.Len())
		for code, s := range c.Dict.Strs {
			sv := table.NewString(s)
			in := sv.Compare(lo) >= 0 && sv.Compare(hi) <= 0
			mask[code] = in != not
		}
		return maskKernel(c, mask), true
	}
	return kernel{}, false
}

// numericBetweenKernel is compileBetween over an int or float column; over an
// int column between exactInt bounds, BETWEEN records its range.
func numericBetweenKernel(c *table.ColumnData, ci int, lo, hi float64, not bool) kernel {
	nulls := c.Nulls
	zones := c.Zones
	k := kernel{}
	if not {
		k.prune = func(m int) bool {
			z := &zones[m]
			return !z.HasValue || (z.Min >= lo && z.Max <= hi)
		}
	} else {
		k.prune = func(m int) bool {
			z := &zones[m]
			return !z.HasValue || z.Max < lo || z.Min > hi
		}
	}
	// The row engine tests Compare(v,lo) >= 0 && Compare(v,hi) <= 0, and
	// Compare returns 0 for NaN operands — so NaN is BETWEEN everything.
	// !(v < lo) && !(v > hi) reproduces that exactly.
	test := func(v float64) bool { return (!(v < lo) && !(v > hi)) != not }
	if l, lok := exactInt(lo); lok && c.Kind == table.KindInt {
		if h, hok := exactInt(hi); hok && l <= h { // an int cell is never NaN
			k.sel = intRangeSel(c, l, h, not)
			if !not {
				k.ints = &intRange{ci, l, h}
			}
			return k
		}
	}
	if c.Kind == table.KindInt {
		vals := c.Ints
		k.sel = func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if test(float64(vals[i])) {
					out = append(out, i)
				}
			}
			return out
		}
	} else {
		vals := c.Floats
		k.sel = func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if nulls != nil && nulls.Get(int(i)) {
					continue
				}
				if test(vals[i]) {
					out = append(out, i)
				}
			}
			return out
		}
	}
	return k
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
