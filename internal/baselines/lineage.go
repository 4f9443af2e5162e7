package baselines

import (
	"math/rand"

	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

const lineageCap = 400 // per-query tracked result tuples for the baselines

// runWorkload executes every training query with lineage tracking and returns
// them as tracked queries: result tuples deduplicated and, beyond lineageCap,
// cut down to a uniform sample seeded by seed. Queries that fail are skipped
// (their weight is dropped), mirroring how baselines in the paper simply
// cannot use unexecutable queries. Aggregates are rewritten to SPJ first.
func runWorkload(db *table.Database, train workload.Workload, seed int64) []metrics.TrackedQuery {
	rng := rand.New(rand.NewSource(seed))
	var out []metrics.TrackedQuery
	for _, q := range train {
		stmt := engine.RewriteAggregateToSPJ(q.Stmt)
		res, err := engine.ExecuteWith(db, stmt, engine.Options{TrackLineage: true})
		if err != nil {
			continue
		}
		out = append(out, metrics.TrackedQuery{
			Weight: q.Weight,
			Total:  res.Table.NumRows(),
			Tuples: metrics.SampleTuples(metrics.Tuples(res.Lineage), lineageCap, rng),
		})
	}
	return out
}
