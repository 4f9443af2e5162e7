package engine

import (
	"context"
	"fmt"
	"strings"

	"asqprl/internal/faults"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// This file is the reference executor: the row-at-a-time operators the
// columnar pipeline (colexec.go) replaced, kept as the oracle its answers are
// held to. No product code reaches them. They carry tuples as []joinedRow,
// evaluate every filter with evalExpr and join by hashing Value keys per query;
// guard ticks, budgets, fault points and error strings are the columnar
// pipeline's, which is what lets a harness compare the two outcome for outcome.
// They emit no spans and time no phases.

// rowExecute runs stmt on the reference executor under opts (MaxIntermediateRows,
// MaxOutputRows and TrackLineage; a tripped output budget returns the rows
// before the trip with the error, as ExecuteWithContext does). It is the one
// way into this file.
func rowExecute(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (*Result, error) {
	g := newGuard(ctx, opts)
	if opts.MaxIntermediateRows <= 0 {
		opts.MaxIntermediateRows = defaultMaxIntermediate
	}
	if err := g.poll(); err != nil {
		return nil, err
	}
	b, preds, err := plan(db, stmt)
	if err != nil {
		return nil, err
	}
	return executeRowTail(b, stmt, preds, opts, g)
}

// rowCount is CountContext on the reference executor.
func rowCount(ctx context.Context, db *table.Database, stmt *sqlparse.Select, opts Options) (int, error) {
	opts.TrackLineage = false
	res, err := rowExecute(ctx, db, stmt, opts)
	if err != nil {
		return 0, err
	}
	return res.rows(), nil
}

// executeRowTail is the row-at-a-time pipeline after planning: scan/join, then
// aggregate or project, then finish.
func executeRowTail(b *binder, stmt *sqlparse.Select, preds []predClass, opts Options, g *guard) (*Result, error) {
	joined, err := runJoins(b, preds, opts, g)
	if err != nil {
		return nil, err
	}

	if stmt.HasAggregates() {
		out, err := aggregate(b, stmt, joined, g)
		if err != nil {
			return nil, err
		}
		return finish(stmt, &Result{Table: out}, nil)
	}

	out, lineage, err := project(b, stmt, joined, opts, g)
	if err != nil {
		// A tripped output budget still carries the rows produced so far;
		// surface them (un-finished) so callers can serve a tagged partial.
		if out != nil {
			return &Result{Table: out, Lineage: lineage}, err
		}
		return nil, err
	}
	res := &Result{Table: out, Lineage: lineage}
	return finish(stmt, res, func(i int) evalEnv { return evalEnv{b: b, row: joined[i]} })
}

// runJoins executes the scan + join pipeline and returns joined rows.
func runJoins(b *binder, preds []predClass, opts Options, g *guard) ([]joinedRow, error) {
	n := len(b.tables)

	candidates, err := scanRelations(b, preds, g)
	if err != nil {
		return nil, err
	}

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

// scanRelations produces the per-relation filtered candidate row lists (the
// scan phase of runJoins).
func scanRelations(b *binder, preds []predClass, g *guard) ([][]int32, error) {
	n := len(b.tables)
	candidates := make([][]int32, n)
	for rel := 0; rel < n; rel++ {
		if faults.Active() {
			if err := faults.Inject(faults.PointEngineScan); err != nil {
				return nil, err
			}
		}
		keep, err := scanRelationRows(b, rel, relFilters(preds, rel), g)
		if err != nil {
			return nil, err
		}
		candidates[rel] = keep
	}
	return candidates, nil
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
			v := b.tables[rel].Cell(int(ri), kp.relCol.col)
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

	// Probe phase.
	out := make([]joinedRow, 0, len(current))
	for _, jr := range current {
		kb = kb[:0]
		null := false
		for _, kp := range pairs {
			ri := jr[kp.boundBind.rel]
			v := b.tables[kp.boundBind.rel].Cell(int(ri), kp.boundBind.col)
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
func project(b *binder, stmt *sqlparse.Select, joined []joinedRow, opts Options, g *guard) (*table.RowSet, [][]table.RowID, error) {
	trackLineage := opts.TrackLineage
	if faults.Active() {
		if err := faults.Inject(faults.PointEngineProject); err != nil {
			return nil, nil, err
		}
	}
	schema, items := projectSchema(b, stmt)

	out := &table.RowSet{Schema: schema}
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
		out.Rows = append(out.Rows, row)
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
			row = append(row, t.Row(int(jr[rel]))...)
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

// aggregate executes the grouping/aggregation path of a SELECT over the
// joined rows.
func aggregate(b *binder, stmt *sqlparse.Select, joined []joinedRow, g *guard) (*table.RowSet, error) {
	return aggregateRows(b, stmt, len(joined), func(i int) evalEnv { return evalEnv{b: b, row: joined[i]} }, g)
}
