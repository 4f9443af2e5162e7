package baselines

import (
	"context"
	"math/rand"

	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

const lineageCap = 400 // per-query tracked result tuples for the baselines

// runWorkload executes every training query for its lineage (metrics.Track)
// and returns them as tracked queries: result tuples deduplicated and, beyond
// lineageCap, cut down to a uniform sample seeded by seed. Queries that fail
// are skipped (their weight is dropped), mirroring how baselines in the paper
// simply cannot use unexecutable queries. Aggregates are rewritten to SPJ
// first.
func runWorkload(db *table.Database, train workload.Workload, seed int64) []metrics.TrackedQuery {
	rng := rand.New(rand.NewSource(seed))
	var out []metrics.TrackedQuery
	for _, q := range train {
		tq, err := metrics.Track(context.Background(), db, engine.RewriteAggregateToSPJ(q.Stmt), lineageCap, rng)
		if err != nil {
			continue
		}
		tq.Weight = q.Weight
		out = append(out, tq)
	}
	return out
}
