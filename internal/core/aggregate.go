package core

import (
	"fmt"

	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
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
	// aggregate is scale-free).
	ScaleFactor float64
	// FromApproximation is false when the estimator routed the query to the
	// full database (exact answer).
	FromApproximation bool
}

// QueryAggregate answers an aggregate SQL query approximately from the
// approximation set, applying the standard AQP scale-up for COUNT and SUM.
// The answerability estimator may route the query to the full database, in
// which case the answer is exact. Only single-aggregate SELECTs with at most
// one GROUP BY column are supported.
func (s *System) QueryAggregate(sql string) (*AggregateResult, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.QueryAggregateStmt(stmt)
}

// QueryAggregateStmt is QueryAggregate over a parsed statement.
func (s *System) QueryAggregateStmt(stmt *sqlparse.Select) (*AggregateResult, error) {
	call := firstAggregateCall(stmt)
	if call == nil {
		return nil, fmt.Errorf("core: QueryAggregate requires an aggregate in the SELECT list")
	}
	if len(stmt.GroupBy) > 1 {
		return nil, fmt.Errorf("core: QueryAggregate supports at most one GROUP BY column")
	}

	// Route via the estimator using the SPJ rewrite, as in Section 4.4.
	spj := engine.RewriteAggregateToSPJ(stmt)
	pred, conf := s.est.Estimate(spj)
	s.drift.Observe(spj, conf)

	target := s.setDB
	fromApprox := pred >= EstimatorThreshold
	if !fromApprox {
		target = s.db
	}
	res, err := engine.ExecuteWith(target, stmt, engine.Options{})
	if err != nil {
		return nil, err
	}
	out := &AggregateResult{
		Values:            res.Table.GroupValues(len(stmt.GroupBy) > 0),
		ScaleFactor:       1,
		FromApproximation: fromApprox,
	}

	// Scale COUNT/SUM by the sampling ratio of the queried table when
	// answering from the approximation set.
	if fromApprox && (call.Name == "COUNT" || call.Name == "SUM") && len(stmt.From) > 0 {
		out.ScaleFactor = s.tableScaleFactor(stmt.From[0].Table)
		for g := range out.Values {
			out.Values[g] *= out.ScaleFactor
		}
	}
	return out, nil
}

// tableScaleFactor returns |T| / |S_T| for the named table (1 when the
// approximation set holds the whole table or the table is unknown).
func (s *System) tableScaleFactor(tableName string) float64 {
	full := s.db.Table(tableName)
	approx := s.setDB.Table(tableName)
	if full == nil || approx == nil || approx.NumRows() == 0 {
		return 1
	}
	f := float64(full.NumRows()) / float64(approx.NumRows())
	if f < 1 {
		return 1
	}
	return f
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
