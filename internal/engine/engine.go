package engine

import (
	"context"
	"sort"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Result is the output of executing a statement.
type Result struct {
	// Table holds the projected output rows. It is nil for count-only
	// execution (see CountContext), where Count carries the answer, for
	// LineageContext, where Lineage and Count do, and for
	// ExecuteFrameContext, where Frame does.
	Table *table.RowSet
	// Lineage, when tracked, holds for each output row the base-table rows
	// that produced it (one RowID per relation in the FROM/JOIN list).
	// It is nil for aggregate queries.
	Lineage [][]table.RowID
	// Count is the result cardinality for count-only and lineage-only
	// execution (Table nil).
	Count int
	// Frame is the answer of ExecuteFrameContext, which sets it instead of
	// Table (and tracks no lineage).
	Frame *Frame
}

// Plan is the bound plan of one execution (PlannedContext).
type Plan struct {
	b     *binder
	preds []predClass
	stmt  *sqlparse.Select
}

// rows is the result's cardinality, whichever form the answer took.
func (r *Result) rows() int {
	switch {
	case r.Table != nil:
		return r.Table.NumRows()
	case r.Frame != nil:
		return r.Frame.N
	}
	return r.Count
}

// Options tunes execution.
type Options struct {
	// MaxIntermediateRows bounds the size of join intermediates; execution
	// fails with an error wrapping ErrRowBudget when exceeded. Zero means
	// the default (2,000,000).
	MaxIntermediateRows int
	// MaxOutputRows bounds the number of emitted result rows; execution
	// stops with an error wrapping ErrRowBudget when exceeded. For SPJ
	// queries the rows produced before the trip are returned alongside the
	// error so callers can serve a tagged partial answer. Zero disables.
	MaxOutputRows int
	// TrackLineage enables per-row lineage for SPJ queries.
	TrackLineage bool
	// Parallelism is ignored: every operator runs on the calling goroutine at
	// every input size (DESIGN §13 "Operators are serial"). The field stays
	// because the bench module, which this repository's changes may not edit,
	// sets it.
	Parallelism int
	// countOnly asks execution to skip output materialization when the
	// statement allows it (SPJ of columns and literals without DISTINCT or
	// ORDER BY) and return only the result cardinality in Result.Count. Set by
	// CountContext.
	countOnly bool
	// frames asks for the answer as Result.Frame, leaving output rows unbuilt
	// wherever the statement allows it. Set by ExecuteFrameContext.
	frames bool
	// lineageOnly asks for Result.Lineage and Result.Count, leaving output
	// rows unbuilt wherever the statement allows it (as countOnly does). Set
	// by LineageContext.
	lineageOnly bool
}

const defaultMaxIntermediate = 2_000_000

// Execute runs stmt against db with lineage tracking enabled.
func Execute(db *table.Database, stmt *sqlparse.Select) (*Result, error) {
	return ExecuteWith(db, stmt, Options{TrackLineage: true})
}

// Count executes stmt and returns only the number of result rows. Lineage
// tracking is disabled for speed.
func Count(db *table.Database, stmt *sqlparse.Select) (int, error) {
	return CountContext(context.Background(), db, stmt, Options{})
}

// CountContext is Count with a query context and explicit options, for
// callers (the shadow auditor) that need ground-truth cardinalities under a
// deadline. Lineage tracking is forced off.
func CountContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (int, error) {
	opts.TrackLineage = false
	opts.countOnly = true
	res, err := ExecuteWithContext(ctx, db, stmt, opts)
	if err != nil {
		return 0, err
	}
	return res.rows(), nil
}

// ExecuteFrameContext is ExecuteWithContext for a caller that writes the
// answer somewhere other than a table.RowSet: the result carries a Frame and no
// Table, and an SPJ projection of columns and literals builds no output row at
// all — LIMIT just shortens the frame. Guards, budgets (charged on the
// pre-LIMIT count; a tripped output budget returns the partial frame with the
// error), fault points and result order are those of ExecuteWithContext.
// Lineage tracking is forced off. See Frame for how long the frame is valid.
func ExecuteFrameContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (*Result, error) {
	res, _, err := PlannedContext(ctx, db, stmt, opts, true)
	return res, err
}

// LineageContext runs stmt for its lineage alone: the result carries Lineage
// and Count — exactly what ExecuteWithContext with lineage tracking gives as
// Lineage and Table.NumRows(), after LIMIT, with the same errors, budget trips
// (a tripped output budget returns the partial lineage with the error) and
// fault points — and no Table. An SPJ projection of columns and literals
// builds no output row; DISTINCT, ORDER BY, aggregates and computed
// expressions need values, so those statements are executed with their rows,
// which are then dropped. Lineage tracking is forced on.
func LineageContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (*Result, error) {
	opts.TrackLineage = true
	opts.lineageOnly = true
	res, err := ExecuteWithContext(ctx, db, stmt, opts)
	if res != nil && res.Table != nil {
		res.Count, res.Table = res.Table.NumRows(), nil
	}
	return res, err
}

// joinKeyPair names, for one equi-join conjunct, the key column on the
// relation being joined in and the key column on the already-bound side.
type joinKeyPair struct{ relCol, boundBind binding }

// predClass classifies a WHERE/ON conjunct.
type predClass struct {
	expr sqlparse.Expr
	rels []int // sorted relation indices referenced
	// equi-join fields, valid when isEquiJoin:
	isEquiJoin bool
	leftBind   binding
	rightBind  binding
}

// ExecuteWith runs stmt against db with explicit options.
func ExecuteWith(db *table.Database, stmt *sqlparse.Select, opts Options) (*Result, error) {
	return ExecuteWithContext(context.Background(), db, stmt, opts)
}

// ExecuteWithContext is ExecuteWith with a query context. Every operator
// (scan, join, project, aggregate) checks the context cooperatively every
// guardInterval rows, so cancellation and deadlines interrupt execution
// promptly; expired deadlines surface as errors wrapping ErrDeadline and
// cancellations as errors wrapping ErrCanceled. When an output row budget
// trips mid-projection, the partial rows are returned alongside the
// ErrRowBudget error.
func ExecuteWithContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (*Result, error) {
	res, _, err := PlannedContext(ctx, db, stmt, opts, false)
	return res, err
}

// PlannedContext is ExecuteFrameContext when frame is set, else
// ExecuteWithContext, and returns the bound plan, a failed execution's too.
func PlannedContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options, frame bool) (*Result, Plan, error) {
	if frame {
		opts.TrackLineage, opts.frames = false, true
	}
	g := newGuard(ctx, opts)
	// Trace propagation: when the caller's context carries a span (a traced
	// request from the serving layer or training pipeline), execution joins
	// its trace with an engine/execute span plus per-operator children.
	// Untraced calls — the scoring hot loop, plain ExecuteWith — pay only the
	// context lookup and the nil-receiver no-ops.
	span := obs.SpanFromContext(ctx).StartChild("engine/execute")
	res, p, err := executeWith(db, stmt, opts, g, span)
	if frame && res != nil && res.Table != nil {
		res.Frame, res.Table = frameOver(res.Table), nil
	}
	if span != nil {
		if p.b != nil {
			// Rendered if a snapshot reads it: nothing changes a bound plan.
			span.Annotate("plan", p.Shape)
		}
		if res != nil {
			span.Annotate("rows_out", res.rows())
		}
		if err != nil {
			markSpanOutcome(span, err)
		}
		span.End()
	}
	return res, p, err
}

// markSpanOutcome records err on span. Guard trips (deadline, row budget,
// cancellation) are expected control flow — the degradation ladder converts
// them into tagged degraded answers — so they land as guard_trip events that
// leave the trace's error status to the layer that decides the final outcome.
// Anything else is a genuine fault and marks the span errored.
func markSpanOutcome(span *obs.Span, err error) {
	if span == nil || err == nil {
		return
	}
	if kind := GuardKind(err); kind != "" {
		span.Annotate("guard", kind)
		span.Event("guard_trip", "kind", kind)
		return
	}
	span.MarkError(err.Error())
}

// executeWith is the execution pipeline; its caller names the plan on its span.
func executeWith(db *table.Database, stmt *sqlparse.Select, opts Options, g *guard, span *obs.Span) (*Result, Plan, error) {
	if opts.MaxIntermediateRows <= 0 {
		opts.MaxIntermediateRows = defaultMaxIntermediate
	}
	// An already-expired deadline or canceled context fails before any work.
	if err := g.poll(); err != nil {
		return nil, Plan{}, err
	}
	b, preds, err := plan(db, stmt)
	p := Plan{b, preds, stmt}
	if err != nil {
		return nil, p, err
	}
	res, err := executeColTail(b, stmt, preds, opts, g, span)
	return res, p, err
}

// plan resolves stmt's relations, binds every expression and classifies the
// predicates. The binder comes back with the error once the relations
// resolved, for a caller that names the plan shape on its span.
func plan(db *table.Database, stmt *sqlparse.Select) (*binder, []predClass, error) {
	b, err := newBinder(db, stmt)
	if err != nil {
		return nil, nil, err
	}
	if err := b.bindStmt(stmt); err != nil {
		return b, nil, err
	}
	preds, err := classify(b, stmt)
	return b, preds, err
}

// classify splits WHERE and ON into per-relation filters, equi-joins and
// residual predicates.
func classify(b *binder, stmt *sqlparse.Select) ([]predClass, error) {
	var conjuncts []sqlparse.Expr
	conjuncts = append(conjuncts, sqlparse.Conjuncts(stmt.Where)...)
	for _, j := range stmt.Joins {
		conjuncts = append(conjuncts, sqlparse.Conjuncts(j.On)...)
	}
	preds := make([]predClass, 0, len(conjuncts))
	for _, c := range conjuncts {
		pc := predClass{expr: c}
		relSet := map[int]bool{}
		var walkErr error
		sqlparse.Walk(c, func(n sqlparse.Expr) {
			if ref, ok := n.(*sqlparse.ColumnRef); ok {
				bd, err := b.resolve(ref)
				if err != nil {
					if walkErr == nil {
						walkErr = err
					}
					return
				}
				relSet[bd.rel] = true
			}
		})
		if walkErr != nil {
			return nil, walkErr
		}
		for r := range relSet {
			pc.rels = append(pc.rels, r)
		}
		sort.Ints(pc.rels)
		// Detect "a.x = b.y" equi-joins.
		if bin, ok := c.(*sqlparse.Binary); ok && bin.Op == "=" && len(pc.rels) == 2 {
			lc, lok := bin.Left.(*sqlparse.ColumnRef)
			rc, rok := bin.Right.(*sqlparse.ColumnRef)
			if lok && rok {
				lb, _ := b.resolve(lc)
				rb, _ := b.resolve(rc)
				if lb.rel != rb.rel {
					pc.isEquiJoin = true
					pc.leftBind, pc.rightBind = lb, rb
				}
			}
		}
		preds = append(preds, pc)
	}
	return preds, nil
}

// relFilters collects the per-relation filter expressions for rel: its
// single-relation conjuncts, plus (at relation 0) constant conjuncts, which
// are applied exactly once per row so errors (e.g. aggregates in WHERE)
// surface.
func relFilters(preds []predClass, rel int) []sqlparse.Expr {
	var filters []sqlparse.Expr
	for _, p := range preds {
		if len(p.rels) == 1 && p.rels[0] == rel {
			filters = append(filters, p.expr)
		}
		if len(p.rels) == 0 && rel == 0 {
			filters = append(filters, p.expr)
		}
	}
	return filters
}

// scanRelationRows filters one relation's rows with per-row expression
// evaluation, returning kept row indices in row order: the scan of a relation
// one of whose filters does not compile to a vectorized kernel (an evaluation
// error surfaces at the first row, in row order, that raises it).
func scanRelationRows(b *binder, rel int, filters []sqlparse.Expr, g *guard) ([]int32, error) {
	rows := b.tables[rel].NumRows()
	keep := make([]int32, 0, rows)
	probe := make(joinedRow, len(b.tables))
	for i := range probe {
		probe[i] = -1
	}
	for i := 0; i < rows; i++ {
		if err := g.tick(1); err != nil {
			return nil, err
		}
		probe[rel] = int32(i)
		ok := true
		for _, f := range filters {
			v, err := evalExpr(f, evalEnv{b: b, row: probe})
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !truthy(v) {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// inferKind guesses the output kind of an expression for schema purposes.
func inferKind(b *binder, e sqlparse.Expr) table.Kind {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Value.Kind
	case *sqlparse.ColumnRef:
		if bd, err := b.resolve(x); err == nil {
			return b.tables[bd.rel].Schema[bd.col].Kind
		}
		return table.KindString
	case *sqlparse.Binary:
		switch x.Op {
		case "+", "-", "*", "%":
			lk, rk := inferKind(b, x.Left), inferKind(b, x.Right)
			if lk == table.KindInt && rk == table.KindInt {
				return table.KindInt
			}
			return table.KindFloat
		case "/":
			return table.KindFloat
		default:
			return table.KindBool
		}
	case *sqlparse.Unary:
		if x.Op == "-" {
			return inferKind(b, x.X)
		}
		return table.KindBool
	case *sqlparse.In, *sqlparse.Between, *sqlparse.Like, *sqlparse.IsNull:
		return table.KindBool
	case *sqlparse.Call:
		switch x.Name {
		case "COUNT":
			return table.KindInt
		case "AVG", "SUM": // a SUM is accumulated and returned as a float, whatever it adds up
			return table.KindFloat
		default: // MIN/MAX follow the argument
			if x.Arg != nil {
				return inferKind(b, x.Arg)
			}
			return table.KindFloat
		}
	}
	return table.KindString
}

// finish applies DISTINCT, ORDER BY and LIMIT to materialized rows. tuple(i)
// is the evaluation environment of the base tuple behind row i as it was
// projected (before DISTINCT), for ORDER BY expressions that are not output
// columns; it is nil for aggregates, whose ORDER BY must name one.
func finish(stmt *sqlparse.Select, res *Result, tuple func(i int) evalEnv) (*Result, error) {
	t := res.Table
	// DISTINCT. Row keys are built in one reused buffer; the map only copies
	// the bytes for keys seen the first time. src maps a kept row back to its
	// index as projected.
	var src []int
	if stmt.Distinct {
		seen := make(map[string]bool, len(t.Rows))
		rows := t.Rows[:0]
		var lineage [][]table.RowID
		if res.Lineage != nil {
			lineage = res.Lineage[:0]
		}
		var kb []byte
		for i, r := range t.Rows {
			kb = r.AppendKey(kb[:0])
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			rows = append(rows, r)
			if res.Lineage != nil {
				lineage = append(lineage, res.Lineage[i])
			}
			src = append(src, i)
		}
		t.Rows, res.Lineage = rows, lineage
	}

	if len(stmt.OrderBy) > 0 {
		// A key is an output column — matched by alias or rendered text, then
		// by bare column name — or else evaluated against the base tuple.
		outCol := make([]int, len(stmt.OrderBy))
		for oi, o := range stmt.OrderBy {
			outCol[oi] = t.ColumnIndex(o.Expr.String())
			if c, ok := o.Expr.(*sqlparse.ColumnRef); ok && outCol[oi] < 0 {
				outCol[oi] = t.ColumnIndex(c.Column)
			}
		}
		idx := make([]int, len(t.Rows))
		keys := make([][]table.Value, len(idx))
		for i, r := range t.Rows {
			idx[i] = i
			keys[i] = make([]table.Value, len(stmt.OrderBy))
			for oi, o := range stmt.OrderBy {
				if col := outCol[oi]; col >= 0 {
					keys[i][oi] = r[col]
					continue
				}
				if tuple == nil {
					return nil, statementErrorf("engine: ORDER BY %s does not match an output column", o.Expr)
				}
				at := i
				if src != nil {
					at = src[i]
				}
				v, err := evalExpr(o.Expr, tuple(at))
				if err != nil {
					return nil, err
				}
				keys[i][oi] = v
			}
		}
		sort.SliceStable(idx, func(a, c int) bool {
			for oi, o := range stmt.OrderBy {
				cmp := keys[idx[a]][oi].Compare(keys[idx[c]][oi])
				if cmp == 0 {
					continue
				}
				if o.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		rows := make([]table.Row, len(idx))
		var lineage [][]table.RowID
		if res.Lineage != nil {
			lineage = make([][]table.RowID, len(idx))
		}
		for i, j := range idx {
			rows[i] = t.Rows[j]
			if res.Lineage != nil {
				lineage[i] = res.Lineage[j]
			}
		}
		t.Rows, res.Lineage = rows, lineage
	}

	if stmt.Limit >= 0 && len(t.Rows) > stmt.Limit {
		t.Rows = t.Rows[:stmt.Limit]
		if res.Lineage != nil {
			res.Lineage = res.Lineage[:stmt.Limit]
		}
	}
	return res, nil
}
