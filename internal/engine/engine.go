package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Result is the output of executing a statement.
type Result struct {
	// Table holds the projected output rows. It is nil for count-only
	// execution (see CountContext), where Count carries the answer, and for
	// ExecuteFrameContext, where Frame does.
	Table *table.Table
	// Lineage, when tracked, holds for each output row the base-table rows
	// that produced it (one RowID per relation in the FROM/JOIN list).
	// It is nil for aggregate queries.
	Lineage [][]table.RowID
	// Count is the result cardinality for count-only execution (Table nil).
	Count int
	// Frame is the answer of ExecuteFrameContext, which sets it instead of
	// Table (and tracks no lineage).
	Frame *Frame
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
	// Parallelism is the number of workers for the data-parallel operators
	// (candidate filter scans, projection, and the row engine's hash-join
	// probe; the columnar probe runs on one goroutine). Zero means one worker
	// per CPU; values below 1 force the serial path, which an operator also
	// takes at any setting while its input is under parallelMinRows rows.
	// Results are byte-identical for every setting: morsel outputs are merged
	// in input order, so parallelism changes wall-clock only, never answers.
	Parallelism int
	// UseRowEngine forces the legacy row-at-a-time operators instead of the
	// columnar/vectorized pipeline. The two paths produce byte-identical
	// results (proven by the differential fuzz harness); this switch exists
	// as an operational escape hatch and for differential testing.
	UseRowEngine bool
	// countOnly asks execution to skip output materialization when the
	// statement allows it (SPJ of columns and literals without DISTINCT or
	// ORDER BY) and return only the result cardinality in Result.Count. Set by
	// CountContext.
	countOnly bool
	// frames asks for the answer as Result.Frame, leaving output rows unbuilt
	// wherever the statement allows it. Set by ExecuteFrameContext.
	frames bool
	// minParallelRows, when positive, replaces parallelMinRows: tests reach the
	// parallel operators on data of their own size, and the crossover benchmark
	// measures them below the constant it is read from.
	minParallelRows int
}

const defaultMaxIntermediate = 2_000_000

// Execute runs stmt against db with lineage tracking enabled.
func Execute(db *table.Database, stmt *sqlparse.Select) (*Result, error) {
	return ExecuteWith(db, stmt, Options{TrackLineage: true})
}

// ExecuteContext runs stmt against db with lineage tracking enabled,
// honoring ctx cancellation and deadline through cooperative per-row checks.
func ExecuteContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select) (*Result, error) {
	return ExecuteWithContext(ctx, db, stmt, Options{TrackLineage: true})
}

// ExecuteSQL parses and executes a SQL string.
func ExecuteSQL(db *table.Database, sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Execute(db, stmt)
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
// answer somewhere other than a table.Table: the result carries a Frame and no
// Table, and an SPJ projection of columns and literals builds no output row at
// all — LIMIT just shortens the frame. Guards, budgets (charged on the
// pre-LIMIT count; a tripped output budget returns the partial frame with the
// error), fault points and result order are those of ExecuteWithContext.
// Lineage tracking is forced off. See Frame for how long the frame is valid.
func ExecuteFrameContext(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (*Result, error) {
	opts.TrackLineage = false
	opts.frames = true
	res, err := ExecuteWithContext(ctx, db, stmt, opts)
	if res != nil && res.Table != nil {
		res.Frame, res.Table = frameOver(res.Table), nil
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

// ExecuteWith runs stmt against db with explicit options. When observability
// is enabled (see internal/obs), it records per-query latency keyed by the
// plan shape, per-operator execution counts, and per-phase timings.
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
	g := newGuard(ctx, opts)
	// Trace propagation: when the caller's context carries a span (a traced
	// request from the serving layer or training pipeline), execution joins
	// its trace with an engine/execute span plus per-operator children.
	// Untraced calls — the scoring hot loop, plain ExecuteWith — pay only the
	// context lookup and the nil-receiver no-ops.
	span := obs.SpanFromContext(ctx).StartChild("engine/execute")
	t := startQueryTimer()
	if t != nil {
		recordWorkers(opts.workers())
	}
	// When both the timer and the span are off, the binder and predicates
	// are dropped immediately so the plan state does not stay live (and
	// GC-scannable) past execution.
	res, b, preds, err := executeWith(db, stmt, opts, t, g, span)
	if t != nil {
		t.finish(b, preds, stmt, err)
	}
	if span != nil {
		if b != nil {
			span.Annotate("plan", shapeOf(b, preds, stmt).String())
		}
		if res != nil {
			span.Annotate("rows_out", res.rows())
		}
		if err != nil {
			markSpanOutcome(span, err)
		}
		span.End()
	}
	return res, err
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

// executeWith is the untimed execution pipeline. It returns the binder and
// classified predicates so the caller can key metrics by plan shape.
func executeWith(db *table.Database, stmt *sqlparse.Select, opts Options, t *queryTimer, g *guard, span *obs.Span) (*Result, *binder, []predClass, error) {
	if opts.MaxIntermediateRows <= 0 {
		opts.MaxIntermediateRows = defaultMaxIntermediate
	}
	// An already-expired deadline or canceled context fails before any work.
	if err := g.poll(); err != nil {
		return nil, nil, nil, err
	}
	b, err := newBinder(db, stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := b.bindStmt(stmt); err != nil {
		return nil, b, nil, err
	}

	preds, err := classify(b, stmt)
	if err != nil {
		return nil, b, nil, err
	}
	t.phase(phasePlan)
	if !opts.UseRowEngine {
		res, err := executeColTail(b, stmt, preds, opts, t, g, span)
		return res, b, preds, err
	}
	res, err := executeRowTail(b, stmt, preds, opts, t, g, span)
	return res, b, preds, err
}

// executeRowTail is the legacy row-at-a-time pipeline after planning:
// scan/join, then aggregate or project, then finish. It remains the reference
// semantics the columnar path (executeColTail) is differentially tested
// against.
func executeRowTail(b *binder, stmt *sqlparse.Select, preds []predClass, opts Options, t *queryTimer, g *guard, span *obs.Span) (*Result, error) {
	joined, err := runJoins(b, preds, opts, g, span)
	if err != nil {
		return nil, err
	}
	t.phase(phaseJoin)

	if stmt.HasAggregates() {
		aggSpan := span.StartChild("engine/aggregate")
		out, err := aggregate(b, stmt, joined, g)
		if err != nil {
			markSpanOutcome(aggSpan, err)
			aggSpan.End()
			return nil, err
		}
		aggSpan.Annotate("rows_out", out.NumRows())
		aggSpan.End()
		t.phase(phaseAggregate)
		res := &Result{Table: out}
		res, err = finish(stmt, res, nil)
		t.phase(phaseFinish)
		return res, err
	}

	projSpan := span.StartChild("engine/project")
	out, lineage, err := project(b, stmt, joined, opts, g)
	if err != nil {
		markSpanOutcome(projSpan, err)
		if out != nil {
			projSpan.Annotate("rows_out", out.NumRows())
		}
		projSpan.End()
		// A tripped output budget still carries the rows produced so far;
		// surface them (un-finished) so callers can serve a tagged partial.
		if out != nil {
			return &Result{Table: out, Lineage: lineage}, err
		}
		return nil, err
	}
	projSpan.Annotate("rows_out", out.NumRows())
	projSpan.End()
	t.phase(phaseProject)
	res := &Result{Table: out, Lineage: lineage}
	res, err = finish(stmt, res, func(i int) evalEnv { return evalEnv{b: b, row: joined[i]} })
	t.phase(phaseFinish)
	return res, err
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

// runJoins executes the scan + join pipeline and returns joined rows. When
// span is a live trace span, scan and join phases attach child spans with
// per-relation and output row counts.
func runJoins(b *binder, preds []predClass, opts Options, g *guard, span *obs.Span) (out []joinedRow, err error) {
	n := len(b.tables)

	scanSpan := span.StartChild("engine/scan")
	candidates, err := scanRelations(b, preds, opts, g)
	if err != nil {
		markSpanOutcome(scanSpan, err)
		scanSpan.End()
		return nil, err
	}
	if scanSpan != nil {
		for rel := 0; rel < n; rel++ {
			scanSpan.Annotate("rows/"+b.refs[rel].Name(), len(candidates[rel]))
		}
	}
	scanSpan.End()

	joinSpan := span.StartChild("engine/join")
	defer func() {
		if err != nil {
			markSpanOutcome(joinSpan, err)
		} else {
			joinSpan.Annotate("rows_out", len(out))
		}
		joinSpan.End()
	}()

	// Left-deep joins in FROM order.
	current := make([]joinedRow, 0, len(candidates[0]))
	for _, ri := range candidates[0] {
		jr := make(joinedRow, n)
		for i := range jr {
			jr[i] = -1
		}
		jr[0] = ri
		current = append(current, jr)
	}

	bound := map[int]bool{0: true}
	for rel := 1; rel < n; rel++ {
		// Equi-join conjuncts connecting rel to already-bound relations.
		var joins []predClass
		for _, p := range preds {
			if !p.isEquiJoin {
				continue
			}
			a, c := p.leftBind.rel, p.rightBind.rel
			if (a == rel && bound[c]) || (c == rel && bound[a]) {
				joins = append(joins, p)
			}
		}
		next, err := joinStep(b, current, candidates[rel], rel, joins, opts, g)
		if err != nil {
			return nil, err
		}
		current = next
		bound[rel] = true

		// Residual predicates whose relations are all now bound and which
		// involve rel (so each residual applies exactly once).
		for _, p := range preds {
			if p.isEquiJoin || len(p.rels) < 2 {
				continue
			}
			if p.rels[len(p.rels)-1] != rel {
				continue
			}
			allBound := true
			for _, r := range p.rels {
				if !bound[r] {
					allBound = false
					break
				}
			}
			if !allBound {
				continue
			}
			filtered := current[:0]
			for _, jr := range current {
				if err := g.tick(1); err != nil {
					return nil, err
				}
				v, err := evalExpr(p.expr, evalEnv{b: b, row: jr})
				if err != nil {
					return nil, err
				}
				if !v.IsNull() && truthy(v) {
					filtered = append(filtered, jr)
				}
			}
			current = filtered
		}
	}
	return current, nil
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

// scanRelations produces the per-relation filtered candidate row lists (the
// scan phase of runJoins).
func scanRelations(b *binder, preds []predClass, opts Options, g *guard) ([][]int32, error) {
	n := len(b.tables)
	candidates := make([][]int32, n)
	for rel := 0; rel < n; rel++ {
		if faults.Active() {
			if err := faults.Inject(faults.PointEngineScan); err != nil {
				return nil, err
			}
		}
		keep, err := scanRelationRows(b, rel, relFilters(preds, rel), opts, g)
		if err != nil {
			return nil, err
		}
		candidates[rel] = keep
	}
	return candidates, nil
}

// scanRelationRows filters one relation's rows with per-row expression
// evaluation, returning kept row indices in row order. It is the reference
// scan used by the row engine and by the columnar scan whenever a filter does
// not compile to a vectorized kernel (keeping data-dependent error ordering
// identical).
func scanRelationRows(b *binder, rel int, filters []sqlparse.Expr, opts Options, g *guard) ([]int32, error) {
	rows := b.tables[rel].Rows
	if workers := opts.workers(); workers > 1 && len(rows) >= opts.parallelRows() {
		return scanFilterParallel(b, rel, filters, g, workers)
	}
	n := len(b.tables)
	keep := make([]int32, 0, len(rows))
	probe := make(joinedRow, n)
	for i := range probe {
		probe[i] = -1
	}
	for i := range rows {
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

// joinStep binds relation rel into the current intermediate rows, using a
// hash join when equi-join predicates connect it, or a cross product
// otherwise.
func joinStep(b *binder, current []joinedRow, cand []int32, rel int, joins []predClass, opts Options, g *guard) ([]joinedRow, error) {
	if faults.Active() {
		if err := faults.Inject(faults.PointEngineJoin); err != nil {
			return nil, err
		}
	}
	if len(joins) == 0 {
		// Cross product.
		if len(current)*len(cand) > opts.MaxIntermediateRows {
			return nil, fmt.Errorf("%w: cross product of %d x %d rows exceeds limit %d", ErrRowBudget, len(current), len(cand), opts.MaxIntermediateRows)
		}
		out := make([]joinedRow, 0, len(current)*len(cand))
		for _, jr := range current {
			for _, ri := range cand {
				if err := g.tick(1); err != nil {
					return nil, err
				}
				nr := make(joinedRow, len(jr))
				copy(nr, jr)
				nr[rel] = ri
				out = append(out, nr)
			}
		}
		return out, nil
	}

	// Key extraction: for each join predicate, the column on rel's side and
	// the column on the bound side.
	pairs := make([]joinKeyPair, len(joins))
	for i, p := range joins {
		if p.leftBind.rel == rel {
			pairs[i] = joinKeyPair{relCol: p.leftBind, boundBind: p.rightBind}
		} else {
			pairs[i] = joinKeyPair{relCol: p.rightBind, boundBind: p.leftBind}
		}
	}

	// Build hash table over rel's candidates. Keys are appended into one
	// reused byte buffer; the bytes are copied into a map key only once per
	// distinct key (the bucket is held by pointer), so the per-row string
	// allocation of Value.Key is gone from this path.
	build := make(map[string]*[]int32, len(cand))
	var kb []byte
	for _, ri := range cand {
		if err := g.tick(1); err != nil {
			return nil, err
		}
		kb = kb[:0]
		null := false
		for _, kp := range pairs {
			v := b.tables[rel].Rows[ri][kp.relCol.col]
			if v.IsNull() {
				null = true
				break
			}
			kb = v.AppendKey(kb)
			kb = append(kb, 0x1e)
		}
		if null {
			continue // NULL never joins
		}
		bucket := build[string(kb)]
		if bucket == nil {
			bucket = new([]int32)
			build[string(kb)] = bucket
		}
		*bucket = append(*bucket, ri)
	}

	// Probe phase: the build table is read-only from here, so the probe over
	// the (usually much larger) intermediate side fans out across workers.
	if workers := opts.workers(); workers > 1 && len(current) >= opts.parallelRows() {
		return probeParallel(b, current, rel, pairs, build, opts, g, workers)
	}

	out := make([]joinedRow, 0, len(current))
	for _, jr := range current {
		kb = kb[:0]
		null := false
		for _, kp := range pairs {
			ri := jr[kp.boundBind.rel]
			v := b.tables[kp.boundBind.rel].Rows[ri][kp.boundBind.col]
			if v.IsNull() {
				null = true
				break
			}
			kb = v.AppendKey(kb)
			kb = append(kb, 0x1e)
		}
		if null {
			continue
		}
		if bucket := build[string(kb)]; bucket != nil {
			for _, ri := range *bucket {
				if err := g.tick(1); err != nil {
					return nil, err
				}
				nr := make(joinedRow, len(jr))
				copy(nr, jr)
				nr[rel] = ri
				out = append(out, nr)
				if len(out) > opts.MaxIntermediateRows {
					return nil, fmt.Errorf("%w: join intermediate exceeds limit %d rows", ErrRowBudget, opts.MaxIntermediateRows)
				}
			}
		}
	}
	return out, nil
}

// project evaluates the SELECT list over joined rows (non-aggregate path).
// When the output row budget trips, the partial table built so far is
// returned together with the ErrRowBudget error.
func project(b *binder, stmt *sqlparse.Select, joined []joinedRow, opts Options, g *guard) (*table.Table, [][]table.RowID, error) {
	trackLineage := opts.TrackLineage
	if faults.Active() {
		if err := faults.Inject(faults.PointEngineProject); err != nil {
			return nil, nil, err
		}
	}
	schema, items := projectSchema(b, stmt)

	// An output-row budget must return exactly the rows produced before the
	// trip, which is inherently serial; without one, projection fans out.
	if workers := opts.workers(); workers > 1 && len(joined) >= opts.parallelRows() && (g == nil || g.maxOutput <= 0) {
		return projectParallel(b, stmt, items, schema, joined, trackLineage, g, workers)
	}

	out := table.New("result", schema)
	var lineage [][]table.RowID
	if trackLineage {
		lineage = make([][]table.RowID, 0, len(joined))
	}
	for _, jr := range joined {
		if err := g.tick(1); err != nil {
			return nil, nil, err
		}
		if err := g.out(1); err != nil {
			return out, lineage, err
		}
		row, err := projectRow(b, stmt, items, schema, jr)
		if err != nil {
			return nil, nil, err
		}
		out.AppendRow(row)
		if trackLineage {
			lineage = append(lineage, lineageOf(b, jr))
		}
	}
	return out, lineage, nil
}

// projectRow materializes one output row from a joined base row.
func projectRow(b *binder, stmt *sqlparse.Select, items []sqlparse.SelectItem, schema table.Schema, jr joinedRow) (table.Row, error) {
	if stmt.Star {
		row := make(table.Row, 0, len(schema))
		for rel, t := range b.tables {
			row = append(row, t.Rows[jr[rel]]...)
		}
		return row, nil
	}
	row := make(table.Row, len(items))
	for i, it := range items {
		v, err := evalExpr(it.Expr, evalEnv{b: b, row: jr})
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// lineageOf records the base-table row of every relation behind one output
// row.
func lineageOf(b *binder, jr joinedRow) []table.RowID {
	ids := make([]table.RowID, len(b.tables))
	for rel := range b.tables {
		ids[rel] = table.RowID{Table: strings.ToLower(b.tables[rel].Name), Row: int(jr[rel])}
	}
	return ids
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
		case "AVG":
			return table.KindFloat
		default: // SUM/MIN/MAX follow the argument
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
					return nil, fmt.Errorf("engine: ORDER BY %s does not match an output column", o.Expr)
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
