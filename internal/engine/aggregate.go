package engine

import (
	"fmt"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// aggState accumulates one aggregate function over a group. argBind, when
// non-nil, is the resolved binding of a plain column-reference argument, so
// accumulation reads the column directly instead of re-interpreting the
// expression per row.
type aggState struct {
	call    *sqlparse.Call
	argBind *binding
	count   int64
	sum     float64
	min     table.Value
	max     table.Value
	seen    bool
}

func (a *aggState) add(env evalEnv) error {
	if a.call.Star {
		a.count++
		return nil
	}
	var v table.Value
	if a.argBind != nil {
		v = env.value(*a.argBind)
	} else {
		var err error
		v, err = evalExpr(a.call.Arg, env)
		if err != nil {
			return err
		}
	}
	if v.IsNull() {
		return nil
	}
	a.count++
	a.sum += v.AsFloat()
	if !a.seen || v.Compare(a.min) < 0 {
		a.min = v
	}
	if !a.seen || v.Compare(a.max) > 0 {
		a.max = v
	}
	a.seen = true
	return nil
}

func (a *aggState) value() table.Value {
	switch a.call.Name {
	case "COUNT":
		return table.NewInt(a.count)
	case "SUM":
		if a.count == 0 {
			return table.Null
		}
		return table.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return table.Null
		}
		return table.NewFloat(a.sum / float64(a.count))
	case "MIN":
		if !a.seen {
			return table.Null
		}
		return a.min
	case "MAX":
		if !a.seen {
			return table.Null
		}
		return a.max
	default:
		return table.Null
	}
}

// group holds the accumulators and a representative tuple environment for
// one grouping key. hasRep is false only for the synthetic empty global
// group.
type group struct {
	rep    evalEnv
	hasRep bool
	aggs   []*aggState
}

// collectAggCalls gathers every aggregate call in the SELECT list and HAVING
// (in first-appearance order) and resolves plain column-reference arguments
// once, shared by the row and columnar aggregation paths.
func collectAggCalls(b *binder, stmt *sqlparse.Select) ([]*sqlparse.Call, map[*sqlparse.Call]int) {
	var calls []*sqlparse.Call
	callIndex := map[*sqlparse.Call]int{}
	collect := func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(n sqlparse.Expr) {
			if c, ok := n.(*sqlparse.Call); ok {
				if _, dup := callIndex[c]; !dup {
					callIndex[c] = len(calls)
					calls = append(calls, c)
				}
			}
		})
	}
	for _, it := range stmt.Items {
		collect(it.Expr)
	}
	collect(stmt.Having)
	return calls, callIndex
}

// newAggStates builds one accumulator per call, resolving column-reference
// arguments to direct bindings where possible.
func newAggStates(b *binder, calls []*sqlparse.Call) []*aggState {
	aggs := make([]*aggState, len(calls))
	for i, c := range calls {
		a := &aggState{call: c}
		if !c.Star {
			if ref, ok := c.Arg.(*sqlparse.ColumnRef); ok {
				if bd, err := b.resolve(ref); err == nil {
					a.argBind = &bd
				}
			}
		}
		aggs[i] = a
	}
	return aggs
}

// aggregate executes the grouping/aggregation path of a SELECT.
func aggregate(b *binder, stmt *sqlparse.Select, joined []joinedRow, g *guard) (*table.Table, error) {
	if stmt.Star {
		return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregates")
	}

	// Collect every aggregate call appearing in the SELECT list and HAVING.
	calls, callIndex := collectAggCalls(b, stmt)

	// Group rows by the GROUP BY key, built in one reused byte buffer (the
	// map copies it only when a new group is created).
	groups := map[string]*group{}
	var order []*group
	var kb []byte
	for _, jr := range joined {
		if err := g.tick(1); err != nil {
			return nil, err
		}
		env := evalEnv{b: b, row: jr}
		kb = kb[:0]
		for _, ge := range stmt.GroupBy {
			v, err := evalExpr(ge, env)
			if err != nil {
				return nil, err
			}
			kb = v.AppendKey(kb)
			kb = append(kb, 0x1e)
		}
		gr := groups[string(kb)]
		if gr == nil {
			gr = &group{rep: env, hasRep: true, aggs: newAggStates(b, calls)}
			groups[string(kb)] = gr
			order = append(order, gr)
		}
		for _, a := range gr.aggs {
			if err := a.add(env); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregation over an empty input still yields one row
	// (COUNT(*) = 0 and friends).
	if len(stmt.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &group{aggs: newAggStates(b, calls)})
	}
	return emitAggRows(b, stmt, order, callIndex, g)
}

// emitAggRows materializes the output table from groups in first-appearance
// order, applying HAVING and the output-row budget. Shared by the row and
// columnar aggregation paths, so their results are identical by construction.
func emitAggRows(b *binder, stmt *sqlparse.Select, order []*group, callIndex map[*sqlparse.Call]int, g *guard) (*table.Table, error) {
	schema := make(table.Schema, len(stmt.Items))
	for i, it := range stmt.Items {
		name := it.Alias
		if name == "" {
			name = it.Expr.String()
		}
		schema[i] = table.Column{Name: name, Kind: inferKind(b, it.Expr)}
	}
	out := table.New("result", schema)

	for _, gr := range order {
		if stmt.Having != nil {
			v, err := evalAggExpr(b, stmt.Having, gr, callIndex)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !truthy(v) {
				continue
			}
		}
		if err := g.out(1); err != nil {
			return nil, err
		}
		row := make(table.Row, len(stmt.Items))
		for i, it := range stmt.Items {
			v, err := evalAggExpr(b, it.Expr, gr, callIndex)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.AppendRow(row)
	}
	return out, nil
}

// groupKeyN is a composite grouping key over up to maxFastGroupKeys columns
// (unused positions stay zero; every row of one query uses the same count).
type groupKeyN struct {
	k [maxFastGroupKeys]table.JoinKey
}

const maxFastGroupKeys = 4

// columnGroupKeyer is ColumnData.JoinKeyer for GROUP BY keys, where NULL is a
// legitimate grouping value (TagNull) rather than a skipped row.
func columnGroupKeyer(c *table.ColumnData) func(int32) table.JoinKey {
	jk := c.JoinKeyer(nil)
	return func(i int32) table.JoinKey {
		k, ok := jk(i)
		if !ok {
			return table.JoinKey{Tag: table.TagNull}
		}
		return k
	}
}

// aggregateCol is the columnar grouping/aggregation path. Grouping keys for
// plain column references over clean (non-Mixed) columns use fixed-size typed
// keys (the table.JoinKey scheme, with NULL as a first-class TagNull key);
// anything else falls back to the row path's byte keys. Accumulation and output reuse
// the row path's machinery, so results match it byte for byte.
func aggregateCol(b *binder, stmt *sqlparse.Select, jb *joinedBatch, g *guard) (*table.Table, error) {
	if stmt.Star {
		return nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregates")
	}
	calls, callIndex := collectAggCalls(b, stmt)

	type fastKeyer struct {
		col []int32
		key func(int32) table.JoinKey
	}
	var fks []fastKeyer
	fast := len(stmt.GroupBy) <= maxFastGroupKeys
	for _, ge := range stmt.GroupBy {
		if !fast {
			break
		}
		ref, ok := ge.(*sqlparse.ColumnRef)
		if !ok {
			fast = false
			break
		}
		bd, err := b.resolve(ref)
		if err != nil || jb.cols[bd.rel] == nil {
			fast = false
			break
		}
		c := &b.tables[bd.rel].Columns().Cols[bd.col]
		if c.Mixed {
			fast = false
			break
		}
		fks = append(fks, fastKeyer{col: jb.cols[bd.rel], key: columnGroupKeyer(c)})
	}

	var order []*group
	env := evalEnv{b: b, batch: jb}
	if fast {
		groups := make(map[groupKeyN]*group)
		for idx := 0; idx < jb.n; idx++ {
			if err := g.tick(1); err != nil {
				return nil, err
			}
			env.idx = idx
			var kn groupKeyN
			for pi := range fks {
				kn.k[pi] = fks[pi].key(fks[pi].col[idx])
			}
			gr := groups[kn]
			if gr == nil {
				gr = &group{rep: env, hasRep: true, aggs: newAggStates(b, calls)}
				groups[kn] = gr
				order = append(order, gr)
			}
			for _, a := range gr.aggs {
				if err := a.add(env); err != nil {
					return nil, err
				}
			}
		}
	} else {
		groups := map[string]*group{}
		var kb []byte
		for idx := 0; idx < jb.n; idx++ {
			if err := g.tick(1); err != nil {
				return nil, err
			}
			env.idx = idx
			kb = kb[:0]
			for _, ge := range stmt.GroupBy {
				v, err := evalExpr(ge, env)
				if err != nil {
					return nil, err
				}
				kb = v.AppendKey(kb)
				kb = append(kb, 0x1e)
			}
			gr := groups[string(kb)]
			if gr == nil {
				gr = &group{rep: env, hasRep: true, aggs: newAggStates(b, calls)}
				groups[string(kb)] = gr
				order = append(order, gr)
			}
			for _, a := range gr.aggs {
				if err := a.add(env); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(stmt.GroupBy) == 0 && len(order) == 0 {
		order = append(order, &group{aggs: newAggStates(b, calls)})
	}
	return emitAggRows(b, stmt, order, callIndex, g)
}

// evalAggExpr evaluates an expression in grouped context: aggregate calls
// resolve to their accumulated value, other sub-expressions evaluate against
// the group's representative row (valid for GROUP BY keys, which are
// constant within a group).
func evalAggExpr(b *binder, e sqlparse.Expr, gr *group, callIndex map[*sqlparse.Call]int) (table.Value, error) {
	switch x := e.(type) {
	case *sqlparse.Call:
		idx, ok := callIndex[x]
		if !ok {
			return table.Null, fmt.Errorf("engine: internal: unregistered aggregate %s", x)
		}
		return gr.aggs[idx].value(), nil
	case *sqlparse.Binary:
		l, err := evalAggExpr(b, x.Left, gr, callIndex)
		if err != nil {
			return table.Null, err
		}
		r, err := evalAggExpr(b, x.Right, gr, callIndex)
		if err != nil {
			return table.Null, err
		}
		lit := &sqlparse.Binary{Op: x.Op, Left: &sqlparse.Literal{Value: l}, Right: &sqlparse.Literal{Value: r}}
		return evalExpr(lit, evalEnv{b: b})
	case *sqlparse.Unary:
		v, err := evalAggExpr(b, x.X, gr, callIndex)
		if err != nil {
			return table.Null, err
		}
		lit := &sqlparse.Unary{Op: x.Op, X: &sqlparse.Literal{Value: v}}
		return evalExpr(lit, evalEnv{b: b})
	default:
		if !gr.hasRep {
			// Empty global group: non-aggregate expressions are NULL.
			if _, ok := e.(*sqlparse.Literal); ok {
				return evalExpr(e, evalEnv{b: b})
			}
			return table.Null, nil
		}
		return evalExpr(e, gr.rep)
	}
}

// RewriteAggregateToSPJ strips aggregation from a query, following Section 3
// of the paper: aggregate and GROUP BY operators are removed, leaving a
// select-project-join query over the same tables and predicates. The SELECT
// list becomes the GROUP BY columns plus each aggregate's argument column;
// queries that end up with no projectable expression become SELECT *.
func RewriteAggregateToSPJ(stmt *sqlparse.Select) *sqlparse.Select {
	if !stmt.HasAggregates() {
		return stmt.Clone()
	}
	out := stmt.Clone()
	var items []sqlparse.SelectItem
	seen := map[string]bool{}
	addExpr := func(e sqlparse.Expr) {
		key := e.String()
		if seen[key] {
			return
		}
		seen[key] = true
		items = append(items, sqlparse.SelectItem{Expr: e})
	}
	for _, g := range out.GroupBy {
		addExpr(g)
	}
	for _, it := range out.Items {
		sqlparse.Walk(it.Expr, func(n sqlparse.Expr) {
			if c, ok := n.(*sqlparse.Call); ok && c.Arg != nil {
				addExpr(c.Arg.CloneExpr())
			}
		})
		if _, isCall := it.Expr.(*sqlparse.Call); !isCall {
			hasAgg := false
			sqlparse.Walk(it.Expr, func(n sqlparse.Expr) {
				if _, ok := n.(*sqlparse.Call); ok {
					hasAgg = true
				}
			})
			if !hasAgg {
				addExpr(it.Expr)
			}
		}
	}
	out.GroupBy = nil
	out.Having = nil
	out.OrderBy = nil
	out.Distinct = false
	out.Limit = -1 // a LIMIT on groups does not translate to a row limit
	if len(items) == 0 {
		out.Star = true
		out.Items = nil
	} else {
		out.Star = false
		out.Items = items
	}
	return out
}
