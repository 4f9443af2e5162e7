package engine

import (
	"errors"
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

// group is one output group as emitAggRows and evalAggExpr read it: the tuple
// that opened it (hasRep is false only for the synthetic empty global group)
// and the value of every aggregate call, in collectAggCalls order.
type group struct {
	rep    evalEnv
	hasRep bool
	vals   []table.Value
}

// collectAggCalls gathers every aggregate call in the SELECT list and HAVING
// (in first-appearance order), shared by the row-at-a-time and typed aggregation paths.
func collectAggCalls(stmt *sqlparse.Select) ([]*sqlparse.Call, map[*sqlparse.Call]int) {
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

// aggregateRows is the row-at-a-time aggregation loop over n tuples: the
// aggregate operator for what typed vectors cannot serve (an expression key or
// argument, see planAggregate), and the reference executor's. Every tuple's GROUP BY key is built
// in one reused byte buffer (the map copies it only when a new group is created)
// and every aggregate argument is a boxed Value.
func aggregateRows(b *binder, stmt *sqlparse.Select, n int, tuple func(i int) evalEnv, g *guard) (*table.RowSet, error) {
	if stmt.Star {
		return nil, errStarAggregate
	}
	calls, callIndex := collectAggCalls(stmt)

	type rowGroup struct {
		rep  evalEnv
		aggs []*aggState
	}
	groups := map[string]*rowGroup{}
	var order []*rowGroup
	var kb []byte
	for i := 0; i < n; i++ {
		if err := g.tick(1); err != nil {
			return nil, err
		}
		env := tuple(i)
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
			gr = &rowGroup{rep: env, aggs: newAggStates(b, calls)}
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
	hasRep := true
	if len(stmt.GroupBy) == 0 && len(order) == 0 {
		order, hasRep = append(order, &rowGroup{aggs: newAggStates(b, calls)}), false
	}
	return emitAggRows(b, stmt, len(order), len(calls), func(gi int, gr *group) {
		gr.rep, gr.hasRep = order[gi].rep, hasRep
		for ci, a := range order[gi].aggs {
			gr.vals[ci] = a.value()
		}
	}, callIndex, g)
}

var errStarAggregate error = statementError{errors.New("engine: SELECT * cannot be combined with aggregates")}

// emitAggRows materializes the output table from n groups in first-appearance
// order, applying HAVING and the output-row budget; load fills in group gi.
// Shared by the row-at-a-time and typed aggregation paths, so their results
// are identical by construction.
func emitAggRows(b *binder, stmt *sqlparse.Select, n, nCalls int, load func(gi int, gr *group), callIndex map[*sqlparse.Call]int, g *guard) (*table.RowSet, error) {
	schema := make(table.Schema, len(stmt.Items))
	for i, it := range stmt.Items {
		name := it.Alias
		if name == "" {
			name = it.Expr.String()
		}
		schema[i] = table.Column{Name: name, Kind: inferKind(b, it.Expr)}
	}
	out := &table.RowSet{Schema: schema}

	gr := &group{vals: make([]table.Value, nCalls)}
	for gi := 0; gi < n; gi++ {
		load(gi, gr)
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
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
		return gr.vals[idx], nil
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
