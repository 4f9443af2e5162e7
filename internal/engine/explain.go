package engine

import (
	"fmt"
	"strings"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// Explain returns a human-readable description of the physical plan the
// executor will use for stmt: per-relation scans with pushed-down filters,
// the join order with join kinds (index, byte-key hash when a key column is
// Mixed, or cross), residual predicates, and
// the finishing operators. It performs binding and predicate classification
// but does not execute anything.
func Explain(db *table.Database, stmt *sqlparse.Select) (string, error) {
	b, err := newBinder(db, stmt)
	if err != nil {
		return "", err
	}
	for _, it := range stmt.Items {
		if err := b.bindExpr(it.Expr); err != nil {
			return "", err
		}
	}
	for _, j := range stmt.Joins {
		if err := b.bindExpr(j.On); err != nil {
			return "", err
		}
	}
	if err := b.bindExpr(stmt.Where); err != nil {
		return "", err
	}
	preds, err := classify(b, stmt)
	if err != nil {
		return "", err
	}

	var out strings.Builder
	fmt.Fprintf(&out, "plan for: %s\n", stmt)

	// Scans.
	for rel := range b.tables {
		var filters []string
		for _, p := range preds {
			if len(p.rels) == 1 && p.rels[0] == rel {
				filters = append(filters, p.expr.String())
			}
			if len(p.rels) == 0 && rel == 0 {
				filters = append(filters, p.expr.String())
			}
		}
		fmt.Fprintf(&out, "  scan %s (%d rows)", b.refs[rel].Name(), b.tables[rel].NumRows())
		if len(filters) > 0 {
			fmt.Fprintf(&out, " filter: %s", strings.Join(filters, " AND "))
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
			kind := "index"
			if joinKeysMixed(b, joins) {
				kind = "hash"
			}
			fmt.Fprintf(&out, "  %s join %s on %s\n", kind, b.refs[rel].Name(), strings.Join(keys, " AND "))
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
		if len(stmt.GroupBy) > 0 {
			groups := make([]string, len(stmt.GroupBy))
			for i, g := range stmt.GroupBy {
				groups[i] = g.String()
			}
			fmt.Fprintf(&out, "  hash aggregate by %s\n", strings.Join(groups, ", "))
		} else {
			out.WriteString("  global aggregate\n")
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

// PlanShape returns a compact key describing the physical plan the executor
// will use for stmt — scan/join/residual operator counts plus finishing
// operator flags, e.g. "scan3-hash2-res1+agg+sort+limit". The engine's
// per-query metrics are keyed by it, so queries with the same plan skeleton
// aggregate into one histogram regardless of their literals.
func PlanShape(db *table.Database, stmt *sqlparse.Select) (string, error) {
	b, err := newBinder(db, stmt)
	if err != nil {
		return "", err
	}
	preds, err := classify(b, stmt)
	if err != nil {
		return "", err
	}
	return planShape(b, preds, stmt), nil
}

// planShape is PlanShape over an already-bound statement.
func planShape(b *binder, preds []predClass, stmt *sqlparse.Select) string {
	counts := planOpCounts(b, preds)
	var out strings.Builder
	fmt.Fprintf(&out, "scan%d", len(b.tables))
	if counts.hashJoins > 0 {
		fmt.Fprintf(&out, "-hash%d", counts.hashJoins)
	}
	if counts.crossJoins > 0 {
		fmt.Fprintf(&out, "-cross%d", counts.crossJoins)
	}
	if counts.residuals > 0 {
		fmt.Fprintf(&out, "-res%d", counts.residuals)
	}
	if stmt.HasAggregates() {
		out.WriteString("+agg")
	}
	if stmt.Distinct {
		out.WriteString("+distinct")
	}
	if len(stmt.OrderBy) > 0 {
		out.WriteString("+sort")
	}
	if stmt.Limit >= 0 {
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

// planOpCounts walks the left-deep join order exactly as runJoins does and
// counts the operator kinds it will execute.
func planOpCounts(b *binder, preds []predClass) opCounts {
	var c opCounts
	bound := map[int]bool{0: true}
	for rel := 1; rel < len(b.tables); rel++ {
		hash := false
		for _, p := range preds {
			if !p.isEquiJoin {
				continue
			}
			l, r := p.leftBind.rel, p.rightBind.rel
			if (l == rel && bound[r]) || (r == rel && bound[l]) {
				hash = true
				break
			}
		}
		if hash {
			c.hashJoins++
		} else {
			c.crossJoins++
		}
		bound[rel] = true
		for _, p := range preds {
			if p.isEquiJoin || len(p.rels) < 2 || p.rels[len(p.rels)-1] != rel {
				continue
			}
			c.residuals++
		}
	}
	return c
}
