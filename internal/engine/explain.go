package engine

import (
	"fmt"
	"strings"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Explain returns a human-readable description of the physical plan the
// executor will use for stmt: per-relation scans in the order they run, with
// pushed-down filters, the int range whose index a scan reads with its exact
// row count, and the partner whose keys a scan takes when the data makes them
// selective, the join order with join kinds (index — naming how the probed
// index's runs are emitted — or cross), residual predicates, and the finishing
// operators. It binds, classifies and compiles filters, and reads no row of an
// answer — but it is not free on a cold table: a range's count and the emission
// a step takes are properties of a join index, so Explain asks for the index of
// every dense int column a range filters and every join key column the steps
// will probe, and the first to ask builds it (one O(rows) pass per column,
// counted in index_builds like any build; the statement's execution then finds
// it cached).
func Explain(db *table.Database, stmt *sqlparse.Select) (string, error) {
	b, preds, err := plan(db, stmt)
	if err != nil {
		return "", err
	}

	var out strings.Builder
	fmt.Fprintf(&out, "plan for: %s\n", stmt)

	// Scans, in the order they run (see scanPlan).
	scans, order, sideways := scanPlan(b, preds)
	scanned := make([]bool, len(b.tables))
	for _, rel := range order {
		var filters []string
		for _, f := range relFilters(preds, rel) {
			filters = append(filters, f.String())
		}
		fmt.Fprintf(&out, "  scan %s (%d rows)", b.refs[rel].Name(), b.tables[rel].NumRows())
		if len(filters) > 0 {
			fmt.Fprintf(&out, " filter: %s", strings.Join(filters, " AND "))
		}
		if rs := &scans[rel]; rs.indexed(b.tables[rel].NumRows()) {
			fmt.Fprintf(&out, " via index %s (%d rows)", b.bindingName(binding{rel: rel, col: rs.index.col}), len(rs.rows))
		}
		if sideways {
			for _, kp := range sidewaysPartners(b, preds, rel, scanned) {
				fmt.Fprintf(&out, " keys from %s when selective", b.bindingName(kp.boundBind))
			}
			scanned[rel] = true
		}
		out.WriteByte('\n')
	}

	// Join order (left-deep, FROM order).
	bound := map[int]bool{0: true}
	for rel := 1; rel < len(b.tables); rel++ {
		var keys []string
		var joins []predClass
		for _, p := range preds {
			if !p.isEquiJoin {
				continue
			}
			a, c := p.leftBind.rel, p.rightBind.rel
			if (a == rel && bound[c]) || (c == rel && bound[a]) {
				keys = append(keys, p.expr.String())
				joins = append(joins, p)
			}
		}
		if len(keys) > 0 {
			how := probeKind(indexedPair(b, rel, joinKeyPairs(joins, rel)))
			fmt.Fprintf(&out, "  index join %s on %s (%s)\n", b.refs[rel].Name(), strings.Join(keys, " AND "), how)
		} else {
			fmt.Fprintf(&out, "  cross join %s\n", b.refs[rel].Name())
		}
		bound[rel] = true
		for _, p := range preds {
			if p.isEquiJoin || len(p.rels) < 2 || p.rels[len(p.rels)-1] != rel {
				continue
			}
			fmt.Fprintf(&out, "  residual filter: %s\n", p.expr.String())
		}
	}

	// Finishing operators.
	if stmt.HasAggregates() {
		calls, _ := collectAggCalls(stmt)
		how := planAggregate(b, stmt, calls).describe()
		if len(stmt.GroupBy) > 0 {
			groups := make([]string, len(stmt.GroupBy))
			for i, g := range stmt.GroupBy {
				groups[i] = g.String()
			}
			fmt.Fprintf(&out, "  hash aggregate by %s%s\n", strings.Join(groups, ", "), how)
		} else {
			fmt.Fprintf(&out, "  global aggregate%s\n", how)
		}
		if stmt.Having != nil {
			fmt.Fprintf(&out, "  having: %s\n", stmt.Having)
		}
	} else {
		out.WriteString("  project\n")
	}
	// LIMIT is the projection's when nothing sorts or groups before it (the
	// rows past it are never built); otherwise it ends the finishing step.
	if stmt.Limit >= 0 && !stmt.HasAggregates() && !sortsOutput(stmt) {
		fmt.Fprintf(&out, "    limit %d\n", stmt.Limit)
	} else if stmt.Limit >= 0 || sortsOutput(stmt) {
		out.WriteString("  finish\n")
		if stmt.Distinct {
			out.WriteString("    distinct\n")
		}
		if len(stmt.OrderBy) > 0 {
			keys := make([]string, len(stmt.OrderBy))
			for i, o := range stmt.OrderBy {
				keys[i] = o.String()
			}
			fmt.Fprintf(&out, "    sort by %s\n", strings.Join(keys, ", "))
		}
		if stmt.Limit >= 0 {
			fmt.Fprintf(&out, "    limit %d\n", stmt.Limit)
		}
	}
	return out.String(), nil
}

// Shape renders the plan shape — operator counts and finishing flags, e.g.
// "scan3-hash2-res1+agg+sort+limit", the same whatever the literals — or ""
// when the statement's relations did not resolve, and for the zero Plan.
func (p Plan) Shape() string {
	if p.b == nil {
		return ""
	}
	ops := planOpCounts(p.b, p.preds)
	var out strings.Builder
	fmt.Fprintf(&out, "scan%d", len(p.b.tables))
	if ops.hashJoins > 0 {
		fmt.Fprintf(&out, "-hash%d", ops.hashJoins)
	}
	if ops.crossJoins > 0 {
		fmt.Fprintf(&out, "-cross%d", ops.crossJoins)
	}
	if ops.residuals > 0 {
		fmt.Fprintf(&out, "-res%d", ops.residuals)
	}
	if p.stmt.HasAggregates() {
		out.WriteString("+agg")
	}
	if p.stmt.Distinct {
		out.WriteString("+distinct")
	}
	if len(p.stmt.OrderBy) > 0 {
		out.WriteString("+sort")
	}
	if p.stmt.Limit >= 0 {
		out.WriteString("+limit")
	}
	return out.String()
}

// opCounts tallies the join-pipeline operators of a classified plan.
type opCounts struct {
	hashJoins  int
	crossJoins int
	residuals  int
}

// planOpCounts counts the operator kinds the left-deep join order of runJoinsCol
// will execute: a relation is hash-joined when an equi-join conjunct connects it
// to one before it in FROM order (the larger of the conjunct's two relations is
// the one joined in), cross-joined otherwise.
func planOpCounts(b *binder, preds []predClass) opCounts {
	var c opCounts
	joined := make([]bool, len(b.tables))
	for _, p := range preds {
		if p.isEquiJoin {
			joined[p.rels[1]] = true
		} else if len(p.rels) > 1 {
			c.residuals++
		}
	}
	for _, j := range joined[1:] {
		if j {
			c.hashJoins++
		} else {
			c.crossJoins++
		}
	}
	return c
}
