package spn

import (
	"fmt"
	"strings"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// AggregateEstimate holds estimated aggregate values keyed by group. Global
// (ungrouped) aggregates use the empty-string key.
type AggregateEstimate map[string]float64

// Estimate answers a single-table aggregate query (COUNT/SUM/AVG, optional
// WHERE conjunction of simple predicates, optional single-column GROUP BY)
// from the SPN alone. It returns the estimate for the first aggregate item
// in the SELECT list.
func (s *SPN) Estimate(stmt *sqlparse.Select) (AggregateEstimate, error) {
	if len(stmt.From) != 1 || len(stmt.Joins) != 0 {
		return nil, fmt.Errorf("spn: only single-table queries are supported")
	}
	if !strings.EqualFold(stmt.From[0].Table, s.tableName) {
		return nil, fmt.Errorf("spn: query targets %q, model covers %q", stmt.From[0].Table, s.tableName)
	}
	call := firstAggregate(stmt)
	if call == nil {
		return nil, fmt.Errorf("spn: no aggregate in SELECT list")
	}
	basePreds, err := s.extractPredicates(stmt.Where)
	if err != nil {
		return nil, err
	}

	var groupCol = -1
	if len(stmt.GroupBy) > 1 {
		return nil, fmt.Errorf("spn: at most one GROUP BY column supported")
	}
	if len(stmt.GroupBy) == 1 {
		ref, ok := stmt.GroupBy[0].(*sqlparse.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("spn: GROUP BY must be a plain column")
		}
		groupCol = s.schema.ColumnIndex(ref.Column)
		if groupCol < 0 {
			return nil, fmt.Errorf("spn: unknown GROUP BY column %q", ref.Column)
		}
	}

	out := AggregateEstimate{}
	if groupCol < 0 {
		v, err := s.estimateOne(call, basePreds)
		if err != nil {
			return nil, err
		}
		out[""] = v
		return out, nil
	}
	domain := s.groupDomains[groupCol]
	if len(domain) == 0 {
		return nil, fmt.Errorf("spn: GROUP BY column %q has too many distinct values", s.schema[groupCol].Name)
	}
	for _, gv := range domain {
		preds := clonePreds(basePreds)
		mergeEquality(preds, groupCol, gv)
		v, err := s.estimateOne(call, preds)
		if err != nil {
			return nil, err
		}
		// Only emit groups the model believes exist under the predicates.
		p, _ := s.root.moment(-1, preds)
		if p*float64(s.n) >= 0.5 {
			out[gv.String()] = v
		}
	}
	return out, nil
}

// estimateOne computes one aggregate under a predicate set.
func (s *SPN) estimateOne(call *sqlparse.Call, preds predSet) (float64, error) {
	switch call.Name {
	case "COUNT":
		p, _ := s.root.moment(-1, preds)
		return p * float64(s.n), nil
	case "SUM", "AVG":
		if call.Arg == nil {
			return 0, fmt.Errorf("spn: %s requires a column argument", call.Name)
		}
		ref, ok := call.Arg.(*sqlparse.ColumnRef)
		if !ok {
			return 0, fmt.Errorf("spn: %s argument must be a plain column", call.Name)
		}
		col := s.schema.ColumnIndex(ref.Column)
		if col < 0 {
			return 0, fmt.Errorf("spn: unknown column %q", ref.Column)
		}
		p, m := s.root.moment(col, preds)
		if call.Name == "SUM" {
			return m * float64(s.n), nil
		}
		if p <= 0 {
			return 0, nil
		}
		return m / p, nil
	default:
		return 0, fmt.Errorf("spn: unsupported aggregate %s", call.Name)
	}
}

func firstAggregate(stmt *sqlparse.Select) *sqlparse.Call {
	for _, it := range stmt.Items {
		var found *sqlparse.Call
		sqlparse.Walk(it.Expr, func(e sqlparse.Expr) {
			if c, ok := e.(*sqlparse.Call); ok && found == nil {
				found = c
			}
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// extractPredicates converts a WHERE tree into per-column predicates. Only
// AND-combined simple predicates are supported; anything else errors so the
// caller can fall back.
func (s *SPN) extractPredicates(where sqlparse.Expr) (predSet, error) {
	preds := predSet{}
	for _, conj := range sqlparse.Conjuncts(where) {
		if err := s.addPredicate(preds, conj); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

func (s *SPN) addPredicate(preds predSet, e sqlparse.Expr) error {
	switch x := e.(type) {
	case *sqlparse.Binary:
		ref, okL := x.Left.(*sqlparse.ColumnRef)
		lit, okR := x.Right.(*sqlparse.Literal)
		if !okL || !okR {
			return fmt.Errorf("spn: unsupported predicate %s", e)
		}
		col := s.schema.ColumnIndex(ref.Column)
		if col < 0 {
			return fmt.Errorf("spn: unknown column %q", ref.Column)
		}
		isInt := s.schema[col].Kind == table.KindInt
		v := lit.Value.AsFloat()
		switch x.Op {
		case "=":
			mergeEquality(preds, col, lit.Value)
			return nil
		case "<":
			if isInt {
				v -= 0.5 // x < v over integers means x <= v-1
			}
			mergeRange(preds, col, negInfinity, v)
			return nil
		case "<=":
			if isInt {
				v += 0.5
			}
			mergeRange(preds, col, negInfinity, v)
			return nil
		case ">":
			if isInt {
				v += 0.5
			}
			mergeRange(preds, col, v, posInfinity)
			return nil
		case ">=":
			if isInt {
				v -= 0.5
			}
			mergeRange(preds, col, v, posInfinity)
			return nil
		default:
			return fmt.Errorf("spn: unsupported operator %q", x.Op)
		}
	case *sqlparse.Between:
		ref, ok := x.X.(*sqlparse.ColumnRef)
		if !ok || x.Not {
			return fmt.Errorf("spn: unsupported predicate %s", e)
		}
		lo, okL := x.Lo.(*sqlparse.Literal)
		hi, okH := x.Hi.(*sqlparse.Literal)
		if !okL || !okH {
			return fmt.Errorf("spn: unsupported predicate %s", e)
		}
		col := s.schema.ColumnIndex(ref.Column)
		if col < 0 {
			return fmt.Errorf("spn: unknown column %q", ref.Column)
		}
		loV, hiV := lo.Value.AsFloat(), hi.Value.AsFloat()
		if s.schema[col].Kind == table.KindInt {
			loV -= 0.5
			hiV += 0.5
		}
		mergeRange(preds, col, loV, hiV)
		return nil
	case *sqlparse.In:
		ref, ok := x.X.(*sqlparse.ColumnRef)
		if !ok || x.Not {
			return fmt.Errorf("spn: unsupported predicate %s", e)
		}
		col := s.schema.ColumnIndex(ref.Column)
		if col < 0 {
			return fmt.Errorf("spn: unknown column %q", ref.Column)
		}
		p := ensurePred(preds, col)
		if p.inSet == nil {
			p.inSet = map[string]bool{}
		}
		for _, item := range x.List {
			lit, ok := item.(*sqlparse.Literal)
			if !ok {
				return fmt.Errorf("spn: unsupported IN item %s", item)
			}
			p.inSet[lit.Value.Key()] = true
		}
		return nil
	default:
		return fmt.Errorf("spn: unsupported predicate %s", e)
	}
}

const (
	negInfinity = -1e300
	posInfinity = 1e300
)

func ensurePred(preds predSet, col int) *predicate {
	p := preds[col]
	if p == nil {
		p = &predicate{}
		preds[col] = p
	}
	return p
}

func mergeRange(preds predSet, col int, lo, hi float64) {
	p := ensurePred(preds, col)
	if !p.hasRange {
		p.hasRange = true
		p.lo, p.hi = lo, hi
		return
	}
	if lo > p.lo {
		p.lo = lo
	}
	if hi < p.hi {
		p.hi = hi
	}
}

func mergeEquality(preds predSet, col int, v table.Value) {
	p := ensurePred(preds, col)
	if v.IsNumeric() {
		f := v.AsFloat()
		// A narrow window around the point keeps the uniform-bin math sane.
		mergeRange(preds, col, f-1e-9, f+1e-9)
		// Integer equality: widen to the unit interval centred on f so the
		// histogram mass of that value is captured.
		if v.Kind == table.KindInt {
			p.hasRange = true
			p.lo, p.hi = f-0.5, f+0.5
		}
		return
	}
	if p.inSet == nil {
		p.inSet = map[string]bool{}
	}
	p.inSet[v.Key()] = true
}

func clonePreds(preds predSet) predSet {
	out := predSet{}
	for c, p := range preds {
		cp := *p
		if p.inSet != nil {
			cp.inSet = map[string]bool{}
			for k := range p.inSet {
				cp.inSet[k] = true
			}
		}
		out[c] = &cp
	}
	return out
}
