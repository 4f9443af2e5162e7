package core

import (
	"context"
	"fmt"

	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// AggregateResult is the outcome of answering an aggregate query from the
// approximation set (Section 6.4): per-group estimated values, with COUNT
// and SUM scaled up by the per-table sampling ratio (AVG/MIN/MAX are
// scale-free). Global aggregates use the empty-string group key.
type AggregateResult struct {
	// Values maps group key (Value.String() of the group column; "" for
	// global aggregates) to the estimated value of the first aggregate.
	Values map[string]float64
	// ScaleFactor is the COUNT/SUM scale-up that was applied (1 when the
	// aggregate is scale-free or the full database answered).
	ScaleFactor float64
	// FromApproximation is true when the approximation set answered, also
	// as the ladder's degraded substitute; false for an exact answer.
	FromApproximation bool
}

// QueryAggregate answers an aggregate SQL query through the same ladder as
// QueryStmtContext and, when the approximation set answered, applies the
// standard AQP scale-up for COUNT and SUM (ScaleAggregate). Only
// single-aggregate SELECTs with at most one GROUP BY column are supported.
func (s *System) QueryAggregate(sql string) (*AggregateResult, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if firstAggregateCall(stmt) == nil {
		return nil, fmt.Errorf("core: QueryAggregate requires an aggregate in the SELECT list")
	}
	if len(stmt.GroupBy) > 1 {
		return nil, fmt.Errorf("core: QueryAggregate supports at most one GROUP BY column")
	}
	res, err := s.QueryStmtContext(context.Background(), stmt, QueryOptions{})
	if err != nil {
		return nil, err
	}
	out := &AggregateResult{
		Values:            res.Table.GroupValues(len(stmt.GroupBy) > 0),
		ScaleFactor:       1,
		FromApproximation: res.FromApproximation,
	}
	if res.FromApproximation {
		out.ScaleFactor = ScaleAggregate(s.db, s.setDB, stmt, out.Values)
	}
	return out, nil
}

// ScaleAggregate applies the standard AQP scale-up for unweighted samples to
// values, the per-group answer of stmt over approx: a COUNT or SUM is
// multiplied by |T| / |S_T|, the row ratio of the queried table T between
// full and approx. It returns the factor it applied — 1 for a scale-free
// aggregate (AVG, MIN, MAX) or a table either database lacks or holds empty.
func ScaleAggregate(full, approx *table.Database, stmt *sqlparse.Select, values map[string]float64) float64 {
	call := firstAggregateCall(stmt)
	if call == nil || (call.Name != "COUNT" && call.Name != "SUM") || len(stmt.From) == 0 {
		return 1
	}
	ft, at := full.Table(stmt.From[0].Table), approx.Table(stmt.From[0].Table)
	if ft == nil || at == nil || ft.NumRows() == 0 || at.NumRows() == 0 {
		return 1
	}
	factor := float64(ft.NumRows()) / float64(at.NumRows())
	for g := range values {
		values[g] *= factor
	}
	return factor
}

// firstAggregateCall returns the first aggregate call in the SELECT list.
func firstAggregateCall(stmt *sqlparse.Select) *sqlparse.Call {
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

// ExactAggregate computes the same group → value map on the full database,
// for error measurement (used by the Figure 12 experiment and tests).
func (s *System) ExactAggregate(stmt *sqlparse.Select) (map[string]float64, error) {
	res, err := engine.ExecuteWith(s.db, stmt, engine.Options{})
	if err != nil {
		return nil, err
	}
	return res.Table.GroupValues(len(stmt.GroupBy) > 0), nil
}
